/**
 * @file
 * Fig. 5 — Application throughput.
 *
 * Closed-loop saturation throughput for every application x system x
 * node-count cell. Paper shapes to reproduce:
 *   - pulse 14.8-135.4x higher throughput than Cache-based;
 *   - pulse ~= RPC on one node (both saturate the 25 GB/s node);
 *   - pulse 1.14-2.28x over RPC with multiple nodes (continuation
 *     bounces through the client cost RPC client-side work and extra
 *     round trips);
 *   - throughput scales with node count; UPC scales linearly
 *     (partitioned, never crosses nodes).
 *
 * Cells execute on the parallel sweep runner (--threads /
 * PULSE_BENCH_THREADS); results and metrics exports are byte-
 * identical to a serial run.
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

std::map<std::string, RunOutcome> g_outcomes;

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
    // Enough outstanding work to saturate the memory nodes (queueing
    // inflates latency; the closed loop must out-supply capacity).
    const bool slow = system == SystemKind::kCache;
    spec.concurrency = slow ? 64 : 512 * nodes;
    spec.warmup_ops = slow ? 64 : spec.concurrency;
    spec.measure_ops =
        slow ? 192 : std::max<std::uint64_t>(2 * spec.concurrency, 1200);
    return spec;
}

/** Visit every Fig. 5 cell in the canonical (deterministic) order. */
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
                           g_outcomes[key] = outcome;
                       });
    });
}

void
print_tables()
{
    for (const std::uint32_t nodes : {1u, 2u, 4u}) {
        Table table("Fig 5: application throughput, K ops/s (" +
                    std::to_string(nodes) + " memory node" +
                    (nodes > 1 ? "s" : "") + ")");
        table.set_header({"app", "Cache", "RPC", "RPC-W", "Cache+RPC",
                          "pulse", "pulse/RPC", "pulse/Cache"});
        for (const App app : kApps) {
            std::vector<std::string> row = {app_name(app)};
            double rpc = 0.0;
            double pulse_kops = 0.0;
            double cache = 0.0;
            for (const SystemKind system :
                 {SystemKind::kCache, SystemKind::kRpc,
                  SystemKind::kRpcWimpy, SystemKind::kCacheRpc,
                  SystemKind::kPulse}) {
                const auto it =
                    g_outcomes.find(cell_key(app, system, nodes));
                if (it == g_outcomes.end()) {
                    row.push_back("-");
                    continue;
                }
                row.push_back(fmt(it->second.kops));
                if (system == SystemKind::kRpc) {
                    rpc = it->second.kops;
                } else if (system == SystemKind::kPulse) {
                    pulse_kops = it->second.kops;
                } else if (system == SystemKind::kCache) {
                    cache = it->second.kops;
                }
            }
            row.push_back(rpc > 0 ? fmt(pulse_kops / rpc, "%.2f")
                                  : "-");
            row.push_back(cache > 0 ? fmt(pulse_kops / cache, "%.1f")
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
            ("fig5/" + key).c_str(),
            [key](benchmark::State& state) {
                const RunOutcome& outcome = g_outcomes[key];
                for (auto _ : state) {
                }
                state.counters["kops"] = outcome.kops;
                state.counters["mem_bw_gbps"] = outcome.mem_bw / 1e9;
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
    SweepRunner sweep("fig5");
    add_cells(sweep);
    sweep.run_all();
    register_benchmarks();
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    print_tables();
    MetricsSink::instance().flush();
    return 0;
}
