/**
 * @file
 * Fig. 4 — Application latency.
 *
 * Reproduces the paper's latency comparison: mean per-operation
 * latency for every application x system x node-count cell at
 * concurrency 1 (unloaded latency). Paper shapes to reproduce:
 *   - pulse 10-64x lower latency than Cache-based;
 *   - RPC ~1.25x lower than pulse on one node (higher clock);
 *   - pulse 42-55% lower than RPC with multiple memory nodes
 *     (in-network continuations);
 *   - Cache+RPC (UPC, 1 node only) above RPC (TCP transport).
 *
 * Cells execute on the parallel sweep runner (--threads /
 * PULSE_BENCH_THREADS); results and metrics exports are byte-
 * identical to a serial run. The registered google-benchmark shells
 * report the precomputed counters.
 */
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "sweep_runner.h"

namespace {

using namespace pulse;
using namespace pulse::bench;
using core::SystemKind;

const std::vector<App> kApps = {App::kUpc,   App::kTc,
                                App::kTsv75, App::kTsv15,
                                App::kTsv30, App::kTsv60};

struct Cell
{
    RunOutcome outcome;
    bool run = false;
};

std::map<std::string, Cell> g_cells;

std::string
cell_key(App app, SystemKind system, std::uint32_t nodes)
{
    return std::string(app_name(app)) + "/" +
           core::system_name(system) + "/" + std::to_string(nodes);
}

RunSpec
cell_spec(App app, SystemKind system, std::uint32_t nodes)
{
    RunSpec spec = main_spec(app, system, nodes);
    spec.concurrency = 1;
    spec.warmup_ops = 40;
    // The Cache baseline is ~2 orders slower; fewer ops suffice.
    spec.measure_ops =
        system == SystemKind::kCache ? 120 : 400;
    return spec;
}

/** Visit every Fig. 4 cell in the canonical (deterministic) order. */
template <typename Fn>
void
for_each_cell(Fn&& fn)
{
    for (const std::uint32_t nodes : {1u, 2u, 4u}) {
        for (const App app : kApps) {
            for (const SystemKind system :
                 {SystemKind::kCache, SystemKind::kRpc,
                  SystemKind::kRpcWimpy, SystemKind::kCacheRpc,
                  SystemKind::kPulse}) {
                // The paper restricts Cache+RPC (AIFM) to UPC on a
                // single node (no B+Tree / distributed support).
                if (system == SystemKind::kCacheRpc &&
                    (app != App::kUpc || nodes != 1)) {
                    continue;
                }
                fn(app, system, nodes);
            }
        }
    }
}

void
add_cells(SweepRunner& sweep)
{
    for_each_cell([&sweep](App app, SystemKind system,
                           std::uint32_t nodes) {
        const std::string key = cell_key(app, system, nodes);
        sweep.add_spec(key, cell_spec(app, system, nodes),
                       [key](const RunOutcome& outcome) {
                           g_cells[key] = Cell{outcome, true};
                       });
    });
}

void
print_tables()
{
    for (const std::uint32_t nodes : {1u, 2u, 4u}) {
        Table table("Fig 4: application latency, mean us (" +
                    std::to_string(nodes) + " memory node" +
                    (nodes > 1 ? "s" : "") + ")");
        table.set_header({"app", "Cache", "RPC", "RPC-W", "Cache+RPC",
                          "pulse", "pulse/RPC", "Cache/pulse"});
        for (const App app : kApps) {
            std::vector<std::string> row = {app_name(app)};
            double rpc = 0.0;
            double pulse_latency = 0.0;
            double cache = 0.0;
            for (const SystemKind system :
                 {SystemKind::kCache, SystemKind::kRpc,
                  SystemKind::kRpcWimpy, SystemKind::kCacheRpc,
                  SystemKind::kPulse}) {
                const auto it =
                    g_cells.find(cell_key(app, system, nodes));
                if (it == g_cells.end() || !it->second.run) {
                    row.push_back("-");
                    continue;
                }
                row.push_back(fmt(it->second.outcome.mean_us));
                if (system == SystemKind::kRpc) {
                    rpc = it->second.outcome.mean_us;
                } else if (system == SystemKind::kPulse) {
                    pulse_latency = it->second.outcome.mean_us;
                } else if (system == SystemKind::kCache) {
                    cache = it->second.outcome.mean_us;
                }
            }
            row.push_back(pulse_latency > 0 && rpc > 0
                              ? fmt(pulse_latency / rpc, "%.2f")
                              : "-");
            row.push_back(pulse_latency > 0 && cache > 0
                              ? fmt(cache / pulse_latency, "%.1f")
                              : "-");
            table.add_row(row);
        }
        table.print();
    }
}

void
register_benchmarks()
{
    for_each_cell([](App app, SystemKind system, std::uint32_t nodes) {
        const std::string key = cell_key(app, system, nodes);
        benchmark::RegisterBenchmark(
            ("fig4/" + key).c_str(),
            [key](benchmark::State& state) {
                const RunOutcome& outcome = g_cells[key].outcome;
                for (auto _ : state) {
                }
                state.counters["mean_us"] = outcome.mean_us;
                state.counters["p99_us"] = outcome.p99_us;
                state.counters["iters_per_op"] =
                    outcome.avg_iterations;
                state.counters["errors"] =
                    static_cast<double>(outcome.stats.errors);
            })
            ->Iterations(1)
            ->Unit(benchmark::kMillisecond);
    });
}

}  // namespace

int
main(int argc, char** argv)
{
    parse_bench_args(argc, argv);
    benchmark::Initialize(&argc, argv);
    SweepRunner sweep("fig4");
    add_cells(sweep);
    sweep.run_all();
    register_benchmarks();
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    print_tables();
    MetricsSink::instance().flush();
    return 0;
}
