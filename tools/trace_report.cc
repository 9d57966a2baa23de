/**
 * @file
 * trace_report — per-component latency decomposition from spans.
 *
 * Runs the Fig. 9 workload (hash-table find, single node, closed loop)
 * with per-request tracing enabled, aggregates the recorded spans into
 * the paper's latency breakdown, and cross-checks every component
 * against the accelerator's built-in busy-time accounting (the numbers
 * bench/fig9_breakdown reports). The two decompositions are computed
 * from independent mechanisms — counters summed on the hot path vs
 * typed span events in the trace ring — so agreement validates both.
 *
 * Exit status is non-zero when any component disagrees by more than
 * --max-delta percent (default 5), making the binary a CI check.
 *
 * Options:
 *   --trace-out PATH    write the raw span CSV (deterministic: two
 *                       identically-seeded runs are byte-identical)
 *   --metrics-out PATH  write a unified metrics snapshot (.json / CSV)
 *   --max-delta PCT     cross-check tolerance in percent (default 5)
 */
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/knobs.h"
#include "common/random.h"
#include "core/cluster.h"
#include "ds/hash_table.h"
#include "replication/replication_plane.h"
#include "serve/fleet.h"
#include "trace/metrics_exporter.h"
#include "trace/trace.h"
#include "workloads/workloads.h"

namespace {

using namespace pulse;

/** One cross-checked component row. */
struct Row
{
    const char* name;
    double stats_ns;
    double trace_ns;

    double
    delta_pct() const
    {
        if (stats_ns == 0.0) {
            return trace_ns == 0.0 ? 0.0 : 100.0;
        }
        return (trace_ns - stats_ns) / stats_ns * 100.0;
    }
};

bool
write_text(const std::string& path, const std::string& text)
{
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        return false;
    }
    out << text;
    return out.good();
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string trace_out;
    std::string metrics_out;
    double max_delta_pct = 5.0;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (arg == "--trace-out" && i + 1 < argc) {
            trace_out = argv[++i];
        } else if (arg == "--metrics-out" && i + 1 < argc) {
            metrics_out = argv[++i];
        } else if (arg == "--max-delta" && i + 1 < argc) {
            std::string error;
            if (!knobs::parse_number("--max-delta", argv[++i],
                                     knobs::NumberRule::kNonNegative,
                                     &max_delta_pct, &error)) {
                std::fprintf(stderr, "%s\n", error.c_str());
                return 2;
            }
        } else {
            std::fprintf(stderr,
                         "usage: %s [--trace-out PATH] "
                         "[--metrics-out PATH] [--max-delta PCT]\n",
                         argv[0]);
            return 2;
        }
    }

    // The exact fig9_breakdown workload, with tracing switched on. The
    // plane knobs are honoured like everywhere else so the health
    // sections below reflect opted-in planes.
    core::ClusterConfig config;
    config.trace.enabled = true;
    std::string knob_error;
    if (!knobs::validate_env(&knob_error) ||
        !config.apply_env_knobs(&knob_error)) {
        std::fprintf(stderr, "%s\n", knob_error.c_str());
        return 2;
    }
    core::Cluster cluster(config);
    ds::HashTableConfig ht;
    ht.num_buckets = 512;
    ds::HashTable table(cluster.memory(), cluster.allocator(), ht);
    std::vector<std::uint64_t> keys;
    for (std::uint64_t i = 0; i < 50'000; i++) {
        keys.push_back(workloads::key_of(i));
    }
    table.insert_many(keys);

    Rng rng(17);
    serve::TenantLoad load = serve::closed_loop(20, 400, 1);
    load.on_measure_start = [&cluster] { cluster.reset_stats(); };

    const serve::TenantFleetStats result = serve::run_closed_loop(
        cluster.queue(), cluster.submitter(core::SystemKind::kPulse),
        [&](std::uint64_t) {
            return table.make_find(keys[rng.next_below(keys.size())],
                                   nullptr);
        },
        load);

    // Trace-derived decomposition.
    const std::vector<trace::SpanEvent> events =
        cluster.tracer().events();
    const trace::Breakdown breakdown =
        trace::aggregate_breakdown(events);

    // Counter-derived decomposition (fig9_breakdown's accounting).
    const auto& stats = cluster.accelerator(0).stats();
    const double requests =
        static_cast<double>(stats.requests_received.value());
    const double iters = static_cast<double>(stats.iterations.value());
    const double loads = static_cast<double>(stats.loads.value());

    const Row rows[] = {
        {"net stack/pkt",
         stats.net_stack_time.sum() / (2.0 * requests) / 1e3,
         breakdown.net_stack_ns_per_pkt()},
        {"scheduler", stats.scheduler_time.sum() / requests / 1e3,
         breakdown.scheduler_ns()},
        {"mem pipe/load",
         stats.mem_pipeline_time.sum() / loads / 1e3,
         breakdown.mem_pipeline_ns_per_load()},
        {"logic/iter", stats.logic_pipeline_time.sum() / iters / 1e3,
         breakdown.logic_ns_per_iter()},
    };

    std::printf("=== trace_report: Fig. 9 latency breakdown "
                "(hash-table find, %" PRIu64 " ops) ===\n",
                result.finished());
    std::printf("%-14s %12s %12s %9s\n", "component", "stats_ns",
                "trace_ns", "delta_%");
    bool ok = true;
    for (const Row& row : rows) {
        std::printf("%-14s %12.2f %12.2f %9.3f\n", row.name,
                    row.stats_ns, row.trace_ns, row.delta_pct());
        if (std::fabs(row.delta_pct()) > max_delta_pct) {
            ok = false;
        }
    }
    std::printf("iters/req %.1f; spans recorded %llu, dropped %llu\n",
                iters / requests,
                static_cast<unsigned long long>(
                    cluster.tracer().recorded()),
                static_cast<unsigned long long>(
                    cluster.tracer().dropped()));

    // Per-memory-node load skew (max/mean of request counts): the
    // signal the elastic placement plane acts on. Trivially 1.00 on
    // this single-node workload; bench/ablation_migration and fig8
    // report the multi-node values.
    const std::vector<std::uint64_t> node_ops =
        cluster.node_request_counts();
    std::printf("node load imbalance %.2f (requests:",
                cluster.node_load_imbalance());
    for (const std::uint64_t ops : node_ops) {
        std::printf(" %llu", static_cast<unsigned long long>(ops));
    }
    std::printf(")\n");

    // Fault-tolerance health (only when PULSE_REPLICATION opted the
    // plane in): per-node detector state plus the failover and
    // redundancy-repair ledger.
    if (const replication::ReplicationPlane* plane =
            cluster.replication_plane()) {
        const auto& rstats = plane->stats();
        std::printf("replication k=%u: %llu replicas live, "
                    "%llu failovers, %llu spans rerouted, "
                    "%llu spans lost, %llu rereplications, "
                    "backlog %llu B\n",
                    plane->config().replication_factor,
                    static_cast<unsigned long long>(
                        rstats.replicas_established.value()),
                    static_cast<unsigned long long>(
                        rstats.failovers_executed.value()),
                    static_cast<unsigned long long>(
                        rstats.failover_spans_rerouted.value()),
                    static_cast<unsigned long long>(
                        rstats.failover_spans_lost.value()),
                    static_cast<unsigned long long>(
                        rstats.rereplications.value()),
                    static_cast<unsigned long long>(
                        plane->rereplication_backlog_bytes()));
        std::printf("detector:");
        for (NodeId node = 0;
             node < cluster.memory().num_nodes(); node++) {
            std::printf(" node%u=%s(%.2f)", node,
                        plane->is_dead(node) ? "DEAD" : "live",
                        plane->suspicion(node));
        }
        std::printf(" (probes %llu, acks %llu)\n",
                    static_cast<unsigned long long>(
                        rstats.heartbeats_sent.value()),
                    static_cast<unsigned long long>(
                        rstats.heartbeat_acks.value()));
    }

    // Serving-plane admission ledger (only when PULSE_SERVING opted
    // the QoS plane in): aggregate counters plus the per-tenant view —
    // contract, what was admitted, what waited for quota, what was
    // shed with a typed rejection.
    if (const serve::QosController* plane = cluster.serve_plane()) {
        const auto& sstats = plane->stats();
        std::printf("serving: %llu admitted, %llu throttled, "
                    "%llu shed, %zu parked\n",
                    static_cast<unsigned long long>(
                        sstats.admitted.value()),
                    static_cast<unsigned long long>(
                        sstats.quota_throttled.value()),
                    static_cast<unsigned long long>(
                        sstats.shed.value()),
                    plane->parked());
        std::printf("%-8s %-8s %6s %12s %10s %10s %8s\n", "tenant",
                    "class", "weight", "quota_op_s", "admitted",
                    "throttled", "shed");
        for (const auto& [tenant, counters] :
             plane->tenant_counters()) {
            const serve::TenantQos qos = plane->config().qos_of(tenant);
            std::printf("%-8u %-8s %6u %12.0f %10llu %10llu %8llu\n",
                        tenant, serve::slo_class_name(qos.slo),
                        qos.weight, qos.quota_ops_per_s,
                        static_cast<unsigned long long>(
                            counters.admitted),
                        static_cast<unsigned long long>(
                            counters.throttled),
                        static_cast<unsigned long long>(
                            counters.shed));
        }
    }

    if (!trace_out.empty() &&
        !write_text(trace_out, cluster.tracer().to_csv())) {
        std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
        return 2;
    }
    if (!metrics_out.empty()) {
        trace::MetricsExporter exporter;
        cluster.export_metrics(exporter, "");
        exporter.set("trace_report.net_stack_ns",
                     breakdown.net_stack_ns_per_pkt());
        exporter.set("trace_report.scheduler_ns",
                     breakdown.scheduler_ns());
        exporter.set("trace_report.mem_per_load_ns",
                     breakdown.mem_pipeline_ns_per_load());
        exporter.set("trace_report.logic_per_iter_ns",
                     breakdown.logic_ns_per_iter());
        exporter.set("trace_report.node_imbalance",
                     cluster.node_load_imbalance());
        exporter.add_histogram("trace_report.latency",
                               result.latency);
        if (!exporter.write_file(metrics_out)) {
            std::fprintf(stderr, "cannot write %s\n",
                         metrics_out.c_str());
            return 2;
        }
    }

    if (!ok) {
        std::fprintf(stderr,
                     "cross-check FAILED: trace-derived breakdown "
                     "disagrees with counter accounting by more than "
                     "%.1f%%\n",
                     max_delta_pct);
        return 1;
    }
    return 0;
}
