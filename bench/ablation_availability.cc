/**
 * @file
 * Availability ablation: what does k-way replication buy when a memory
 * node goes dark mid-run?
 *
 * Setup: UPC on 3 memory nodes, concurrency 64, with a scripted
 * blackout of node 0 in the middle of the measured window and the
 * driver's bounded-retry policy on (so the workload keeps pushing
 * through the outage instead of accepting the first give-up). The
 * dataset is scaled down so replica establishment completes well
 * before the outage starts.
 *
 * Three rows: replication off (k=1, the seed behaviour — every
 * operation homed on node 0 stalls until the node heals), k=2 and k=3
 * (the heartbeat detector declares the node dead after a few missed
 * probes and failover re-routes its spans to surviving replicas, so
 * retried operations complete during the outage). Reported per row:
 * throughput and tail latency over the whole window, retry traffic,
 * time-to-detect (outage start -> death declared + re-routed) and
 * time-to-restore (outage start -> replication factor restored on the
 * survivors), straight from the plane's failover log.
 */
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "sweep_runner.h"

namespace {

using namespace pulse;
using namespace pulse::bench;

/** Outage window for node 0 (absolute sim time; warmup_ops is 0 so
 *  the measured window opens at t=0 and these land inside it). */
constexpr Time kOutageStart = micros(1500.0);
constexpr Time kOutageEnd = micros(4500.0);

const std::vector<std::uint32_t> kFactors = {1, 2, 3};

struct AvailabilityPoint
{
    std::uint32_t k = 1;
    double kops = 0.0;
    double mean_us = 0.0;
    double p99_us = 0.0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t retries = 0;
    std::uint64_t failovers = 0;
    std::uint64_t spans_lost = 0;
    std::uint64_t rereplications = 0;
    double detect_us = 0.0;   ///< outage start -> death declared
    double restore_us = 0.0;  ///< outage start -> factor restored
};

std::vector<AvailabilityPoint> g_points(kFactors.size());

AvailabilityPoint
run_availability_cell(CellContext& ctx, std::uint32_t k)
{
    RunSpec spec = main_spec(App::kUpc, core::SystemKind::kPulse, 3);
    spec.concurrency = 64;
    // No warmup: the outage window above is in absolute sim time, so
    // the measured window must open at t=0 for the overlap to be
    // deterministic.
    spec.warmup_ops = 0;
    spec.measure_ops = 6000;
    // Small dataset: replica establishment (one COPY per home region)
    // finishes in the first few hundred microseconds.
    spec.scale.upc_keys = 12'000;
    spec.tweak = [k](core::ClusterConfig& config) {
        config.replication.replication_factor = k;
        config.faults.timeline.push_back(faults::NodeFaultWindow{
            /*node=*/0, faults::NodeFaultKind::kBlackout, kOutageStart,
            kOutageEnd});
        // Same opt-in reliability knobs as the fault ablation: without
        // adaptive RTO a blackout burns the whole retransmit ladder.
        config.offload.adaptive_rto = true;
        config.offload.retransmit_timeout = micros(2000.0);
    };

    Experiment experiment = make_experiment(spec);
    core::Cluster& cluster = *experiment.cluster;
    serve::TenantLoad load =
        serve::closed_loop(spec.warmup_ops, spec.measure_ops,
                           spec.concurrency);
    load.max_retries = 12;
    load.retry_backoff = micros(200.0);
    load.on_measure_start = [&cluster] { cluster.reset_stats(); };
    const serve::TenantFleetStats result = serve::run_closed_loop(
        cluster.queue(), cluster.submitter(core::SystemKind::kPulse),
        experiment.factory, load);
    if (cluster.checker() != nullptr) {
        const std::uint64_t violations = cluster.verify_quiesce();
        if (violations != 0) {
            for (const auto& violation :
                 cluster.checker()->registry().diagnostics()) {
                std::fprintf(stderr, "%s\n",
                             violation.to_string().c_str());
            }
            panic("PULSE_CHECK: %llu violation(s) in cell k=%u",
                  static_cast<unsigned long long>(violations), k);
        }
    }
    ctx.add_events(cluster.queue().events_executed());

    AvailabilityPoint point;
    point.k = k;
    point.kops = result.throughput() / 1e3;
    point.mean_us = to_micros(result.latency.mean());
    point.p99_us = to_micros(result.latency.percentile(0.99));
    point.completed = result.finished();
    point.failed = result.failed;
    point.retries = result.retries();
    if (const replication::ReplicationPlane* plane =
            cluster.replication_plane()) {
        point.failovers = plane->failovers().size();
        point.spans_lost =
            plane->stats().failover_spans_lost.value();
        point.rereplications = plane->stats().rereplications.value();
        if (!plane->failovers().empty()) {
            point.detect_us = to_micros(
                plane->failovers().front().declared_at - kOutageStart);
            point.restore_us = to_micros(plane->last_restore_time() -
                                         kOutageStart);
        }
    }
    return point;
}

void
register_benchmarks()
{
    for (std::size_t i = 0; i < kFactors.size(); i++) {
        benchmark::RegisterBenchmark(
            ("availability/k" + std::to_string(kFactors[i])).c_str(),
            [i](benchmark::State& state) {
                const AvailabilityPoint& point = g_points[i];
                for (auto _ : state) {
                }
                state.counters["kops"] = point.kops;
                state.counters["p99_us"] = point.p99_us;
                state.counters["failovers"] =
                    static_cast<double>(point.failovers);
                state.counters["detect_us"] = point.detect_us;
                state.counters["restore_us"] = point.restore_us;
            })
            ->Iterations(1)
            ->Unit(benchmark::kMillisecond);
    }
}

void
record_metrics(const AvailabilityPoint& point)
{
    auto& metrics = MetricsSink::instance().exporter();
    const std::string prefix =
        "availability.k" + std::to_string(point.k) + ".";
    metrics.set(prefix + "kops", point.kops);
    metrics.set(prefix + "mean_us", point.mean_us);
    metrics.set(prefix + "p99_us", point.p99_us);
    metrics.set(prefix + "completed",
                static_cast<double>(point.completed));
    metrics.set(prefix + "failed", static_cast<double>(point.failed));
    metrics.set(prefix + "retries",
                static_cast<double>(point.retries));
    // With retries on, every failed operation exhausted its budget.
    metrics.set(prefix + "retries_exhausted",
                static_cast<double>(point.failed));
    metrics.set(prefix + "failovers",
                static_cast<double>(point.failovers));
    metrics.set(prefix + "spans_lost",
                static_cast<double>(point.spans_lost));
    metrics.set(prefix + "rereplications",
                static_cast<double>(point.rereplications));
    metrics.set(prefix + "detect_us", point.detect_us);
    metrics.set(prefix + "restore_us", point.restore_us);
}

}  // namespace

int
main(int argc, char** argv)
{
    parse_bench_args(argc, argv);
    benchmark::Initialize(&argc, argv);
    SweepRunner sweep("ablation_availability");
    for (std::size_t i = 0; i < kFactors.size(); i++) {
        const std::uint32_t k = kFactors[i];
        std::string cell = "k";
        cell += std::to_string(k);
        sweep.add(cell, [i, k](CellContext& ctx) {
            g_points[i] = run_availability_cell(ctx, k);
        });
    }
    sweep.run_all();
    register_benchmarks();
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    Table table(
        "Availability ablation: UPC, 3 nodes, concurrency 64, node 0 "
        "dark 1.5ms-4.5ms, driver retry (12 attempts, 200us backoff)");
    table.set_header({"k", "kops", "mean_us", "p99_us", "failed",
                      "retries", "exhausted", "failovers", "detect_us",
                      "restore_us"});
    for (const auto& point : g_points) {
        table.add_row({std::to_string(point.k), fmt(point.kops),
                       fmt(point.mean_us), fmt(point.p99_us),
                       std::to_string(point.failed),
                       std::to_string(point.retries),
                       std::to_string(point.failed),
                       std::to_string(point.failovers),
                       fmt(point.detect_us), fmt(point.restore_us)});
    }
    table.print();
    for (const auto& point : g_points) {
        record_metrics(point);
    }
    MetricsSink::instance().flush();
    return 0;
}
