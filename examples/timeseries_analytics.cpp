/**
 * @file
 * Time-series visualization backend (the paper's TSV application).
 *
 * A uPMU-style voltage trace (64 Hz samples) lives in a time-indexed
 * B+Tree across two memory nodes. Dashboard queries aggregate windows
 * at different zoom levels (7.5 s ... 60 s); each aggregation is one
 * offloaded traversal that walks the leaf chain next to the memory,
 * returning SUM/COUNT/MIN/MAX through the 4 KB scratch_pad. Window
 * latency scales with the window's pointer-traversal length, exactly
 * like the paper's Fig. 4/Table 2.
 *
 *   $ ./timeseries_analytics
 */
#include <cstdio>
#include <string>

#include "core/cluster.h"
#include "ds/bptree.h"
#include "serve/fleet.h"
#include "workloads/workloads.h"

using namespace pulse;

namespace {

/** One dashboard panel: aggregate [lo, hi] on the accelerator. */
ds::BPTree::AggResult
run_aggregate(core::Cluster& cluster, ds::BPTree& tree,
              ds::AggKind kind, std::uint64_t lo, std::uint64_t hi,
              Time* latency)
{
    ds::BPTree::AggResult result;
    auto op = tree.make_aggregate(kind, lo, hi, nullptr);
    op.done = [&](offload::Completion&& completion) {
        result = ds::BPTree::parse_aggregate(completion, kind);
        *latency = completion.latency;
    };
    cluster.submitter(core::SystemKind::kPulse)(std::move(op));
    cluster.queue().run();
    return result;
}

}  // namespace

int
main()
{
    core::ClusterConfig config;
    config.num_mem_nodes = 2;
    core::Cluster cluster(config);

    // ~2 hours of 64 Hz three-phase voltage readings.
    workloads::PmuTrace trace(450'000);
    ds::BPTreeConfig tree_config;
    tree_config.inline_values = true;
    tree_config.leaf_slots = 12;
    tree_config.leaf_fill = 12;
    tree_config.partitioned = true;  // time-partitioned across nodes
    tree_config.partitions = 2;
    ds::BPTree index(cluster.memory(), cluster.allocator(),
                     tree_config);
    index.build(trace.entries());
    std::printf("uPMU trace: %llu samples over %.1f minutes, B+Tree "
                "depth %u, %llu leaves on 2 nodes\n",
                (unsigned long long)index.size(),
                static_cast<double>(trace.last_timestamp() -
                                    trace.first_timestamp()) /
                    60000.0,
                index.depth(),
                (unsigned long long)index.num_leaves());

    // A dashboard drill-down: the same instant at four zoom levels.
    const std::uint64_t focus =
        trace.first_timestamp() +
        (trace.last_timestamp() - trace.first_timestamp()) / 2;
    std::printf("\n%-8s %12s %12s %12s %12s %10s %8s\n", "window",
                "avg_mV", "min_mV", "max_mV", "samples", "latency",
                "hops");
    for (const double window_s : {7.5, 15.0, 30.0, 60.0}) {
        const auto lo = focus;
        const auto hi =
            focus + static_cast<std::uint64_t>(window_s * 1000.0);
        Time latency = 0;
        const auto sum = run_aggregate(cluster, index,
                                       ds::AggKind::kSum, lo, hi,
                                       &latency);
        Time scratch = 0;
        const auto min = run_aggregate(cluster, index,
                                       ds::AggKind::kMin, lo, hi,
                                       &scratch);
        const auto max = run_aggregate(cluster, index,
                                       ds::AggKind::kMax, lo, hi,
                                       &scratch);
        // Average finishes client-side from SUM + COUNT (section 3.1's
        // stateful aggregation pattern).
        const double avg =
            sum.count ? static_cast<double>(sum.value) /
                            static_cast<double>(sum.count)
                      : 0.0;
        // Sanity: the aggregation window's point count.
        char hops[24];
        std::snprintf(hops, sizeof(hops), "~%llu",
                      static_cast<unsigned long long>(
                          sum.count / tree_config.leaf_fill +
                          index.depth()));
        std::printf("%-8.1fs %12.0f %12lld %12lld %12llu %10s %8s\n",
                    window_s, avg, (long long)min.value,
                    (long long)max.value,
                    (unsigned long long)sum.count,
                    format_time(latency).c_str(), hops);
    }

    // Validate against the host reference.
    const auto lo = focus;
    const auto hi = focus + 30'000;
    Time latency = 0;
    const auto offloaded = run_aggregate(cluster, index,
                                         ds::AggKind::kSum, lo, hi,
                                         &latency);
    const auto reference =
        index.aggregate_reference(ds::AggKind::kSum, lo, hi);
    std::printf("\n30s SUM cross-check: accelerator=%lld "
                "host=%lld -> %s\n",
                (long long)offloaded.value, (long long)reference.value,
                offloaded.value == reference.value ? "match"
                                                   : "MISMATCH");

    // Sustained dashboard load: random 15 s windows, random kinds.
    workloads::TsvQueries queries(trace, 15.0);
    Rng rng(7);
    serve::TenantLoad load = serve::closed_loop(100, 1500, 64);
    auto result = serve::run_closed_loop(
        cluster.queue(), cluster.submitter(core::SystemKind::kPulse),
        [&](std::uint64_t) {
            const auto query = queries.next(rng);
            return index.make_aggregate(query.kind, query.lo, query.hi,
                                        nullptr);
        },
        load);
    std::printf("\nsustained load (15 s windows, 64 outstanding): "
                "%.1f K queries/s, p99 %s\n",
                result.throughput() / 1e3,
                format_time(result.latency.percentile(0.99)).c_str());
    return 0;
}
