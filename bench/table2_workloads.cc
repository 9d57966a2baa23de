/**
 * @file
 * Table 2 — Workload characterization.
 *
 * Regenerates the paper's per-workload table: the underlying data
 * structure, whether it is partitionable across memory nodes, eta
 * (the offload engine's statically-computed compute-to-memory-time
 * ratio, t_c / t_d), and the measured average iterations per request.
 * Paper values: UPC (hash, partitionable) eta 0.06, ~100 iterations;
 * TC (B+Tree) eta 0.79, ~75; TSV (B+Tree) eta 0.89, 44/87/165/320
 * for 7.5/15/30/60 s windows.
 *
 * Cells execute on the parallel sweep runner (--threads /
 * PULSE_BENCH_THREADS); each writes its own pre-sized result slot, so
 * outputs are byte-identical to a serial run.
 */
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "isa/analysis.h"
#include "sweep_runner.h"

namespace {

using namespace pulse;
using namespace pulse::bench;

const std::vector<App> kApps = {App::kUpc,   App::kTc,
                                App::kTsv75, App::kTsv15,
                                App::kTsv30, App::kTsv60};

struct Row
{
    std::string structure;
    std::string partitionable;
    double eta = 0.0;
    double iterations = 0.0;
    std::uint32_t program_insns = 0;
    bool offloaded = true;
};

std::vector<Row> g_rows(kApps.size());

double
program_eta(core::Cluster& cluster,
            const std::shared_ptr<const isa::Program>& program)
{
    const accel::AccelConfig& accel = cluster.config().accel;
    return compute_eta(program->analysis(), accel.logic_time_per_insn,
                       accel.mem_pipeline_latency);
}

void
characterize(CellContext& ctx, App app, Row& row)
{
    RunSpec spec = main_spec(app, core::SystemKind::kPulse, 1);
    spec.concurrency = 4;
    spec.warmup_ops = 20;
    spec.measure_ops = 400;

    Experiment experiment = make_experiment(spec);
    core::Cluster& cluster = *experiment.cluster;

    // eta from the offload engine's static analysis of the actual
    // programs (worst program for multi-program apps, as the
    // offload test must hold for each).
    std::vector<std::shared_ptr<const isa::Program>> programs;
    if (app == App::kUpc) {
        row.structure = "Hash-table";
        row.partitionable = "yes";
        programs.push_back(experiment.upc->table().find_program());
    } else if (app == App::kTc) {
        row.structure = "B+Tree";
        row.partitionable = "no";
        programs.push_back(experiment.tc->tree().scan_fold_program());
    } else {
        row.structure = "B+Tree";
        row.partitionable = "no";
        for (const ds::AggKind kind :
             {ds::AggKind::kSum, ds::AggKind::kMin,
              ds::AggKind::kMax}) {
            programs.push_back(
                experiment.tsv->tree().aggregate_program(kind));
        }
    }
    for (const auto& program : programs) {
        row.eta = std::max(row.eta, program_eta(cluster, program));
        row.program_insns =
            std::max(row.program_insns, program->size());
    }

    serve::TenantLoad load =
        serve::closed_loop(spec.warmup_ops, spec.measure_ops,
                           spec.concurrency);
    auto result = serve::run_closed_loop(
        cluster.queue(), cluster.submitter(core::SystemKind::kPulse),
        experiment.factory, load);
    ctx.add_events(cluster.queue().events_executed());
    row.iterations = static_cast<double>(result.iterations) /
                     static_cast<double>(result.finished());
    // Confirm the offload decision accepted everything.
    row.offloaded =
        cluster.offload_engine().stats().fallback.value() == 0;
}

void
register_benchmarks()
{
    for (std::size_t i = 0; i < kApps.size(); i++) {
        const App app = kApps[i];
        benchmark::RegisterBenchmark(
            (std::string("table2/") + app_name(app)).c_str(),
            [i](benchmark::State& state) {
                const Row& row = g_rows[i];
                for (auto _ : state) {
                }
                state.counters["eta"] = row.eta;
                state.counters["avg_iters"] = row.iterations;
            })
            ->Iterations(1)
            ->Unit(benchmark::kMillisecond);
    }
}

}  // namespace

int
main(int argc, char** argv)
{
    parse_bench_args(argc, argv);
    benchmark::Initialize(&argc, argv);
    SweepRunner sweep("table2");
    for (std::size_t i = 0; i < kApps.size(); i++) {
        const App app = kApps[i];
        sweep.add(app_name(app), [app, i](CellContext& ctx) {
            characterize(ctx, app, g_rows[i]);
        });
    }
    sweep.run_all();
    register_benchmarks();
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    Table table("Table 2: workloads (paper: UPC eta 0.06/100 iters; "
                "TC 0.79/75; TSV 0.89/44-320)");
    table.set_header({"app", "structure", "partition", "eta",
                      "avg_iters", "insns", "offloaded"});
    for (std::size_t i = 0; i < kApps.size(); i++) {
        const Row& row = g_rows[i];
        table.add_row({app_name(kApps[i]), row.structure,
                       row.partitionable, fmt(row.eta, "%.2f"),
                       fmt(row.iterations, "%.1f"),
                       std::to_string(row.program_insns),
                       row.offloaded ? "yes" : "NO"});
    }
    table.print();

    auto& metrics = MetricsSink::instance().exporter();
    for (std::size_t i = 0; i < kApps.size(); i++) {
        const Row& row = g_rows[i];
        const std::string prefix =
            std::string("table2.") + app_name(kApps[i]) + ".";
        metrics.set(prefix + "eta", row.eta);
        metrics.set(prefix + "avg_iters", row.iterations);
        metrics.set(prefix + "program_insns", row.program_insns);
    }
    MetricsSink::instance().flush();
    return 0;
}
