/**
 * @file
 * Ablation of the accelerator-core design choices of section 4.2.2
 * (Fig. 3) and of the offload engine's eta-threshold test — the
 * design-choice studies DESIGN.md calls out beyond the paper's own
 * figures.
 *
 * (a) Workspaces per logic pipeline: Fig. 3 argues 2*eta workspaces
 *     keep the memory pipeline busy when loads take t_d end-to-end;
 *     with pipelined (bursted) loads, more in-flight iterators are
 *     needed to cover the 120 ns access latency. The sweep shows
 *     saturation bandwidth vs workspace count — and that unloaded
 *     latency is unaffected.
 *
 * (b) eta threshold: lowering the offload engine's threshold below a
 *     program's eta forces client-side fallback execution (one round
 *     trip per load); latency explodes by ~2 orders of magnitude,
 *     which is exactly why the offload test exists.
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

const std::vector<std::uint32_t> kWorkspaces = {2, 4, 8, 16, 32};
const std::vector<double> kThresholds = {0.25, 0.5, 0.75, 1.0, 2.0};

struct WsPoint
{
    std::uint32_t workspaces = 0;
    double gbps = 0.0;
    double unloaded_us = 0.0;
};

struct EtaPoint
{
    double threshold = 0.0;
    double mean_us = 0.0;
    std::uint64_t fallbacks = 0;
};

std::vector<WsPoint> g_ws(kWorkspaces.size());
std::vector<EtaPoint> g_eta(kThresholds.size());

void
workspace_sweep(CellContext& ctx, std::uint32_t workspaces,
                WsPoint& out)
{
    out.workspaces = workspaces;
    // Saturation bandwidth.
    {
        RunSpec spec =
            main_spec(App::kTsv15, core::SystemKind::kPulse, 1);
        spec.concurrency = 512;
        spec.warmup_ops = 512;
        spec.measure_ops = 1500;
        spec.tweak = [workspaces](core::ClusterConfig& config) {
            config.accel.workspaces_per_logic = workspaces;
        };
        out.gbps = ctx.run_spec(spec).mem_bw / 1e9;
    }
    // Unloaded latency.
    {
        RunSpec spec =
            main_spec(App::kTsv15, core::SystemKind::kPulse, 1);
        spec.concurrency = 1;
        spec.warmup_ops = 20;
        spec.measure_ops = 150;
        spec.tweak = [workspaces](core::ClusterConfig& config) {
            config.accel.workspaces_per_logic = workspaces;
        };
        out.unloaded_us = ctx.run_spec(spec).mean_us;
    }
}

void
eta_threshold_sweep(CellContext& ctx, double threshold, EtaPoint& out)
{
    out.threshold = threshold;
    RunSpec spec = main_spec(App::kTsv15, core::SystemKind::kPulse, 1);
    spec.concurrency = 1;
    spec.warmup_ops = 10;
    spec.measure_ops = 60;  // fallback runs are very slow
    spec.tweak = [threshold](core::ClusterConfig& config) {
        config.offload.eta_threshold = threshold;
    };
    Experiment experiment = make_experiment(spec);
    core::Cluster& cluster = *experiment.cluster;
    serve::TenantLoad load =
        serve::closed_loop(spec.warmup_ops, spec.measure_ops, 1);
    auto result = serve::run_closed_loop(
        cluster.queue(), cluster.submitter(core::SystemKind::kPulse),
        experiment.factory, load);
    ctx.add_events(cluster.queue().events_executed());
    out.mean_us = to_micros(result.latency.mean());
    out.fallbacks = cluster.offload_engine().stats().fallback.value();
}

void
add_cells(SweepRunner& sweep)
{
    for (std::size_t i = 0; i < kWorkspaces.size(); i++) {
        const std::uint32_t workspaces = kWorkspaces[i];
        sweep.add("workspaces_" + std::to_string(workspaces),
                  [workspaces, i](CellContext& ctx) {
                      workspace_sweep(ctx, workspaces, g_ws[i]);
                  });
    }
    for (std::size_t i = 0; i < kThresholds.size(); i++) {
        const double threshold = kThresholds[i];
        sweep.add("eta_threshold_" + fmt(threshold, "%.2f"),
                  [threshold, i](CellContext& ctx) {
                      eta_threshold_sweep(ctx, threshold, g_eta[i]);
                  });
    }
}

void
register_benchmarks()
{
    for (std::size_t i = 0; i < kWorkspaces.size(); i++) {
        benchmark::RegisterBenchmark(
            ("ablation/workspaces_" +
             std::to_string(kWorkspaces[i]))
                .c_str(),
            [i](benchmark::State& state) {
                for (auto _ : state) {
                }
                state.counters["mem_gbps"] = g_ws[i].gbps;
                state.counters["unloaded_us"] = g_ws[i].unloaded_us;
            })
            ->Iterations(1)
            ->Unit(benchmark::kMillisecond);
    }
    for (std::size_t i = 0; i < kThresholds.size(); i++) {
        benchmark::RegisterBenchmark(
            ("ablation/eta_threshold_" + fmt(kThresholds[i], "%.2f"))
                .c_str(),
            [i](benchmark::State& state) {
                for (auto _ : state) {
                }
                state.counters["mean_us"] = g_eta[i].mean_us;
                state.counters["fallbacks"] =
                    static_cast<double>(g_eta[i].fallbacks);
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
    SweepRunner sweep("ablation_eta");
    add_cells(sweep);
    sweep.run_all();
    register_benchmarks();
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    Table ws("Ablation (Fig 3): workspaces per logic pipeline "
             "(TSV-15s; paper core uses 2*eta, see DESIGN.md)");
    ws.set_header({"workspaces", "sat_GB/s", "unloaded_us"});
    for (const auto& point : g_ws) {
        ws.add_row({std::to_string(point.workspaces),
                    fmt(point.gbps), fmt(point.unloaded_us)});
    }
    ws.print();

    Table eta("Ablation: offload eta-threshold (TSV-15s aggregate, "
              "program eta ~0.9)");
    eta.set_header({"threshold", "mean_us", "fallback_ops"});
    for (const auto& point : g_eta) {
        eta.add_row({fmt(point.threshold, "%.2f"),
                     fmt(point.mean_us),
                     std::to_string(point.fallbacks)});
    }
    eta.print();
    MetricsSink::instance().flush();
    return 0;
}
