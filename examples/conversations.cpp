/**
 * @file
 * Threaded conversations (the paper's TC application): YCSB-E-style
 * range scans over a B+Tree whose 240 B message records are scattered
 * across two memory nodes — the distributed-traversal showcase.
 *
 * Each scan alternates between index leaves and message records, so
 * with glibc-like placement roughly every other hop crosses memory
 * nodes. pulse's switch re-routes those continuations in-network
 * (section 5); the pulse-ACC ablation bounces them through the client
 * instead, which this example measures side by side (the paper's
 * Fig. 8 experiment).
 *
 *   $ ./conversations
 */
#include <cstdio>

#include "core/cluster.h"
#include "ds/bptree.h"
#include "serve/fleet.h"
#include "workloads/workloads.h"

using namespace pulse;

namespace {

constexpr std::uint64_t kMessages = 80'000;

struct RunStats
{
    Time mean = 0;
    std::uint64_t forwards = 0;
    std::uint64_t bounces = 0;
};

RunStats
run_scans(core::Cluster& cluster, ds::BPTree& index)
{
    workloads::YcsbE scans(kMessages);
    Rng rng(11);
    serve::TenantLoad load = serve::closed_loop(50, 400, 4);
    load.on_measure_start = [&cluster] { cluster.reset_stats(); };
    auto result = serve::run_closed_loop(
        cluster.queue(), cluster.submitter(core::SystemKind::kPulse),
        [&](std::uint64_t) {
            const auto scan = scans.next(rng);
            return index.make_scan(
                workloads::key_of(scan.start_index), scan.length,
                nullptr);
        },
        load);
    RunStats stats;
    stats.mean = result.latency.mean();
    for (NodeId node = 0; node < 2; node++) {
        stats.forwards +=
            cluster.accelerator(node).stats().forwards_sent.value();
    }
    stats.bounces =
        cluster.offload_engine().stats().client_bounces.value();
    return stats;
}

/** Build the conversation index in one cluster. */
std::unique_ptr<ds::BPTree>
build_index(core::Cluster& cluster)
{
    ds::BPTreeConfig config;
    config.inline_values = false;  // 240 B message records
    config.leaf_slots = 8;
    config.leaf_fill = 7;
    config.partitioned = false;  // glibc-like placement (Table 2)
    config.partitions = 2;
    config.scatter_values = true;
    auto index = std::make_unique<ds::BPTree>(cluster.memory(),
                                              cluster.allocator(),
                                              config);
    std::vector<ds::BPTreeEntry> entries;
    for (std::uint64_t i = 0; i < kMessages; i++) {
        entries.push_back({workloads::key_of(i), 0});
    }
    index->build(entries);
    return index;
}

}  // namespace

int
main()
{
    // --- pulse: in-network continuations ----------------------------
    core::ClusterConfig config;
    config.num_mem_nodes = 2;
    config.alloc_policy = mem::AllocPolicy::kUniform;
    core::Cluster cluster(config);
    auto index = build_index(cluster);
    std::printf("conversation index: %llu messages (240 B records), "
                "B+Tree depth %u, records scattered over 2 nodes\n",
                (unsigned long long)index->size(), index->depth());

    // One scan, narrated.
    {
        auto op = index->make_scan(workloads::key_of(1000), 20,
                                   nullptr);
        cluster.reset_stats();
        ds::BPTree::ScanResult scanned;
        Time latency = 0;
        std::uint64_t hops = 0;
        op.done = [&](offload::Completion&& completion) {
            scanned = ds::BPTree::parse_scan(completion);
            latency = completion.latency;
            hops = completion.iterations;
        };
        cluster.submitter(core::SystemKind::kPulse)(std::move(op));
        cluster.queue().run();
        const auto reference =
            index->scan_reference(workloads::key_of(1000), 20);
        std::uint64_t forwards = 0;
        for (NodeId node = 0; node < 2; node++) {
            forwards += cluster.accelerator(node)
                            .stats()
                            .forwards_sent.value();
        }
        std::printf("\nscan(20 messages): %llu records folded in "
                    "%llu hops, %llu in-network node switches, %s\n",
                    (unsigned long long)scanned.count,
                    (unsigned long long)hops,
                    (unsigned long long)forwards,
                    format_time(latency).c_str());
        std::printf("fold cross-check vs host reference: %s\n",
                    scanned.fold == reference.fold &&
                            scanned.count == reference.count
                        ? "match"
                        : "MISMATCH");
    }

    const RunStats pulse_stats = run_scans(cluster, *index);

    // --- pulse-ACC: continuations bounce through the client ---------
    core::ClusterConfig acc_config = config;
    acc_config.set_pulse_acc(true);
    core::Cluster acc_cluster(acc_config);
    auto acc_index = build_index(acc_cluster);
    const RunStats acc_stats = run_scans(acc_cluster, *acc_index);

    std::printf("\nYCSB-E scan workload (uniform starts, 1-127 "
                "records):\n");
    std::printf("  %-22s %12s %16s %14s\n", "", "mean lat",
                "switch forwards", "client bounces");
    std::printf("  %-22s %12s %16llu %14llu\n",
                "pulse (in-network)",
                format_time(pulse_stats.mean).c_str(),
                (unsigned long long)pulse_stats.forwards,
                (unsigned long long)pulse_stats.bounces);
    std::printf("  %-22s %12s %16llu %14llu\n", "pulse-ACC (bounce)",
                format_time(acc_stats.mean).c_str(),
                (unsigned long long)acc_stats.forwards,
                (unsigned long long)acc_stats.bounces);
    std::printf("\nin-network continuation cuts each cross-node hop "
                "by half a round trip: %.2fx lower scan latency.\n",
                static_cast<double>(acc_stats.mean) /
                    static_cast<double>(pulse_stats.mean));
    return 0;
}
