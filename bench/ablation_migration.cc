/**
 * @file
 * Elastic-placement ablation: does live slab migration recover the
 * throughput a skewed workload loses to a hot memory node?
 *
 * Setup: UPC (the paper's partitionable workload) on 4 memory nodes,
 * with the YCSB-C generator skewed (Zipf theta sweep) and configured
 * so the skew actually lands somewhere migratable: ranks are not
 * scattered (hot keys = low indices) and the table uses sequential
 * bucketing with a bucket-major build, so the hottest chains are
 * physically contiguous slabs on partition 0 (see docs/PLACEMENT.md).
 *
 * Each theta runs twice: placement "static" (hotness tracked, nothing
 * moves — the paper's fixed key partitioning) and "elastic" (the
 * migration engine rebalances hot slabs onto cold nodes). At theta=0
 * the two must match — migration never triggers below the imbalance
 * threshold. At theta=0.99 elastic should buy back >= 1.5x throughput
 * (or tail latency), because node 0 stops being the bandwidth choke.
 *
 * A final row repeats theta=0.99 elastic with the PR-1 fault plane
 * dropping/duplicating/reordering 1% of messages: the copy protocol's
 * per-chunk acks + RTO must deliver the same rebalance, just slower.
 *
 * Cells execute on the parallel sweep runner (--threads /
 * PULSE_BENCH_THREADS); each writes its own pre-sized result slot, so
 * outputs are byte-identical to a serial run.
 */
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "sweep_runner.h"

namespace {

using namespace pulse;
using namespace pulse::bench;

const std::vector<double> kThetas = {0.0, 0.5, 0.9, 0.99};
const std::vector<placement::PlacementMode> kModes = {
    placement::PlacementMode::kStatic,
    placement::PlacementMode::kElastic};

struct MigrationPoint
{
    std::string label;
    placement::PlacementMode mode = placement::PlacementMode::kStatic;
    double kops = 0.0;
    double mean_us = 0.0;
    double p99_us = 0.0;
    double imbalance = 0.0;  ///< max/mean node load EWMA at quiesce
    double request_imbalance = 0.0;  ///< max/mean node requests (measure)
    std::uint64_t migrations = 0;
    std::uint64_t aborted = 0;
    std::uint64_t bytes_copied = 0;
    std::uint64_t retransmits = 0;  ///< copy-chunk retransmissions
    std::uint64_t forwards = 0;     ///< dual-residency store/CAS
};

std::vector<MigrationPoint> g_sweep(kThetas.size() * kModes.size());
MigrationPoint g_faulty;  ///< theta=0.99 elastic under chaos

MigrationPoint
run_migration_cell(CellContext& ctx, const std::string& label,
                   double theta, placement::PlacementMode mode,
                   bool faults)
{
    RunSpec spec = main_spec(App::kUpc, core::SystemKind::kPulse, 4);
    spec.concurrency = 128;
    spec.warmup_ops = 1500;
    spec.measure_ops = 5000;
    // Skew that lands on contiguous, migratable slabs of partition 0.
    spec.scale.zipf_theta = theta;
    spec.scale.zipf_scatter = false;
    spec.scale.sequential_buckets = true;
    spec.tweak = [mode, faults](core::ClusterConfig& config) {
        config.placement.mode = mode;
        if (faults) {
            config.faults.links.loss = 0.01;
            config.faults.links.duplicate = 0.005;
            config.faults.links.reorder = 0.01;
            // Same opt-in reliability knobs as the fault ablation.
            config.offload.adaptive_rto = true;
            config.offload.retransmit_timeout = micros(2000.0);
        }
    };

    Experiment experiment = make_experiment(spec);
    core::Cluster& cluster = *experiment.cluster;
    serve::TenantLoad load =
        serve::closed_loop(spec.warmup_ops, spec.measure_ops,
                           spec.concurrency);
    // Most migrations land during warmup (that is the point: the
    // plane converges, then the measured window runs balanced).
    // reset_stats() zeroes the counters at the measure boundary, so
    // snapshot the warmup tallies first and report whole-run totals.
    struct WarmupTally
    {
        std::uint64_t migrations = 0;
        std::uint64_t aborted = 0;
        std::uint64_t bytes_copied = 0;
        std::uint64_t retransmits = 0;
        std::uint64_t forwards = 0;
    } warmup;
    load.on_measure_start = [&cluster, &warmup] {
        if (const placement::PlacementPlane* plane =
                cluster.placement_plane()) {
            const placement::MigrationStats& mig =
                plane->migration_stats();
            warmup.migrations = mig.completed.value();
            warmup.aborted = mig.aborted.value();
            warmup.bytes_copied = mig.bytes_copied.value();
            warmup.retransmits = mig.chunks_retransmitted.value();
            warmup.forwards = plane->stats().store_forwards.value() +
                              plane->stats().cas_forwards.value();
        }
        cluster.reset_stats();
    };
    const serve::TenantFleetStats result = serve::run_closed_loop(
        cluster.queue(), cluster.submitter(core::SystemKind::kPulse),
        experiment.factory, load);
    // Same contract as run_cell: a PULSE_CHECK run must end clean even
    // with migrations (and the fault plane) racing the traffic.
    if (cluster.checker() != nullptr) {
        const std::uint64_t violations = cluster.verify_quiesce();
        if (violations != 0) {
            for (const auto& violation :
                 cluster.checker()->registry().diagnostics()) {
                std::fprintf(stderr, "%s\n",
                             violation.to_string().c_str());
            }
            panic("PULSE_CHECK: %llu violation(s) in cell %s",
                  static_cast<unsigned long long>(violations),
                  label.c_str());
        }
    }
    ctx.add_events(cluster.queue().events_executed());

    MigrationPoint point;
    point.label = label;
    point.mode = mode;
    point.kops = result.throughput() / 1e3;
    point.mean_us = to_micros(result.latency.mean());
    point.p99_us = to_micros(result.latency.percentile(0.99));
    point.request_imbalance = cluster.node_load_imbalance();
    placement::PlacementPlane* plane = cluster.placement_plane();
    if (plane != nullptr) {
        point.imbalance = plane->imbalance();
        const placement::MigrationStats& mig = plane->migration_stats();
        point.migrations = warmup.migrations + mig.completed.value();
        point.aborted = warmup.aborted + mig.aborted.value();
        point.bytes_copied =
            warmup.bytes_copied + mig.bytes_copied.value();
        point.retransmits =
            warmup.retransmits + mig.chunks_retransmitted.value();
        point.forwards = warmup.forwards +
                         plane->stats().store_forwards.value() +
                         plane->stats().cas_forwards.value();
    }
    return point;
}

const char*
mode_label(placement::PlacementMode mode)
{
    return placement_mode_name(mode);
}

void
add_cells(SweepRunner& sweep)
{
    for (std::size_t m = 0; m < kModes.size(); m++) {
        for (std::size_t t = 0; t < kThetas.size(); t++) {
            const placement::PlacementMode mode = kModes[m];
            const double theta = kThetas[t];
            const std::size_t slot = m * kThetas.size() + t;
            sweep.add(
                std::string("zipf_") + mode_label(mode) + "_" +
                    fmt(theta, "%.2f"),
                [mode, theta, slot](CellContext& ctx) {
                    g_sweep[slot] = run_migration_cell(
                        ctx, fmt(theta, "%.2f"), theta, mode, false);
                });
        }
    }
    sweep.add("zipf_elastic_0.99_faults", [](CellContext& ctx) {
        g_faulty = run_migration_cell(
            ctx, "0.99+chaos", 0.99,
            placement::PlacementMode::kElastic, true);
    });
}

void
register_benchmarks()
{
    for (std::size_t m = 0; m < kModes.size(); m++) {
        for (std::size_t t = 0; t < kThetas.size(); t++) {
            const std::size_t slot = m * kThetas.size() + t;
            benchmark::RegisterBenchmark(
                (std::string("migration/zipf_") +
                 mode_label(kModes[m]) + "_" + fmt(kThetas[t], "%.2f"))
                    .c_str(),
                [slot](benchmark::State& state) {
                    const MigrationPoint& point = g_sweep[slot];
                    for (auto _ : state) {
                    }
                    state.counters["kops"] = point.kops;
                    state.counters["p99_us"] = point.p99_us;
                    state.counters["migrations"] =
                        static_cast<double>(point.migrations);
                })
                ->Iterations(1)
                ->Unit(benchmark::kMillisecond);
        }
    }
    benchmark::RegisterBenchmark(
        "migration/zipf_elastic_0.99_faults",
        [](benchmark::State& state) {
            for (auto _ : state) {
            }
            state.counters["kops"] = g_faulty.kops;
            state.counters["migrations"] =
                static_cast<double>(g_faulty.migrations);
            state.counters["chunk_retransmits"] =
                static_cast<double>(g_faulty.retransmits);
        })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
}

void
add_table_row(Table& table, const MigrationPoint& point)
{
    table.add_row({mode_label(point.mode), point.label,
                   fmt(point.kops), fmt(point.mean_us),
                   fmt(point.p99_us), fmt(point.imbalance, "%.2f"),
                   std::to_string(point.migrations),
                   fmt(static_cast<double>(point.bytes_copied) /
                           static_cast<double>(kMiB),
                       "%.1f"),
                   std::to_string(point.retransmits),
                   std::to_string(point.forwards)});
}

void
record_metrics(const std::string& sweep_name,
               const MigrationPoint& point)
{
    auto& metrics = MetricsSink::instance().exporter();
    const std::string prefix = "migration." + sweep_name + "." +
                               mode_label(point.mode) + "." +
                               point.label + ".";
    metrics.set(prefix + "kops", point.kops);
    metrics.set(prefix + "mean_us", point.mean_us);
    metrics.set(prefix + "p99_us", point.p99_us);
    metrics.set(prefix + "imbalance", point.imbalance);
    metrics.set(prefix + "request_imbalance", point.request_imbalance);
    metrics.set(prefix + "migrations",
                static_cast<double>(point.migrations));
    metrics.set(prefix + "aborted",
                static_cast<double>(point.aborted));
    metrics.set(prefix + "bytes_copied",
                static_cast<double>(point.bytes_copied));
    metrics.set(prefix + "chunk_retransmits",
                static_cast<double>(point.retransmits));
    metrics.set(prefix + "forwards",
                static_cast<double>(point.forwards));
}

}  // namespace

int
main(int argc, char** argv)
{
    parse_bench_args(argc, argv);
    benchmark::Initialize(&argc, argv);
    SweepRunner sweep("ablation_migration");
    add_cells(sweep);
    sweep.run_all();
    register_benchmarks();
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    Table table(
        "Placement ablation: YCSB-C Zipf sweep (UPC, 4 nodes, "
        "concurrency 128, sequential buckets, unscattered ranks; "
        "migration columns cover warmup + measure)");
    table.set_header({"placement", "theta", "kops", "mean_us",
                      "p99_us", "imbalance", "migrations", "MiB_moved",
                      "retrans", "forwards"});
    for (const auto& point : g_sweep) {
        add_table_row(table, point);
    }
    add_table_row(table, g_faulty);
    table.print();

    for (const auto& point : g_sweep) {
        record_metrics("zipf", point);
    }
    record_metrics("zipf", g_faulty);
    MetricsSink::instance().flush();
    return 0;
}
