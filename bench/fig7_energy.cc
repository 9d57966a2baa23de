/**
 * @file
 * Fig. 7 — Energy consumption per request (section 7.1).
 *
 * Energy per operation at memory-bandwidth saturation, single node.
 * Paper shapes to reproduce:
 *   - pulse consumes 4.56-7.14x less energy per request than RPC on a
 *     general-purpose CPU (the paper's text; its figure caption quotes
 *     different percentages — see EXPERIMENTS.md);
 *   - RPC-W (down-clocked "wimpy" cores) is *not* more efficient:
 *     slower execution wastes static power, so its energy/request can
 *     exceed RPC's (e.g. UPC).
 * Also reports performance-per-watt, the paper's efficiency metric.
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
    double uj_per_op = 0.0;
    double kops_per_watt = 0.0;
};

std::map<std::string, Cell> g_cells;

std::string
cell_key(App app, SystemKind system)
{
    return std::string(app_name(app)) + "/" +
           core::system_name(system);
}

RunSpec
cell_spec(App app, SystemKind system)
{
    RunSpec spec = main_spec(app, system, 1);
    spec.concurrency = 512;
    spec.warmup_ops = spec.concurrency;
    spec.measure_ops = std::max<std::uint64_t>(
        2 * spec.concurrency, 1200);
    return spec;
}

Cell
to_cell(const RunOutcome& outcome)
{
    Cell cell;
    cell.uj_per_op = outcome.joules_per_op * 1e6;
    if (outcome.joules_per_op > 0 &&
        outcome.stats.measure_time > 0) {
        const double watts =
            outcome.joules_per_op * outcome.stats.throughput();
        cell.kops_per_watt =
            outcome.stats.throughput() / 1e3 / watts;
    }
    return cell;
}

/** Visit every Fig. 7 cell in the canonical (deterministic) order. */
template <typename Fn>
void
for_each_cell(Fn&& fn)
{
    for (const App app : kApps) {
        for (const SystemKind system :
             {SystemKind::kRpc, SystemKind::kRpcWimpy,
              SystemKind::kCacheRpc, SystemKind::kPulse}) {
            if (system == SystemKind::kCacheRpc && app != App::kUpc) {
                continue;
            }
            fn(app, system);
        }
    }
}

void
add_cells(SweepRunner& sweep)
{
    for_each_cell([&sweep](App app, SystemKind system) {
        const std::string key = cell_key(app, system);
        sweep.add_spec(key, cell_spec(app, system),
                       [key](const RunOutcome& outcome) {
                           g_cells[key] = to_cell(outcome);
                       });
    });
}

void
print_tables()
{
    Table table("Fig 7: energy per request, uJ (1 node, saturated)");
    table.set_header({"app", "RPC", "RPC-W", "Cache+RPC", "pulse",
                      "RPC/pulse", "RPC-W/RPC"});
    for (const App app : kApps) {
        std::vector<std::string> row = {app_name(app)};
        double rpc = 0.0;
        double wimpy = 0.0;
        double pulse_energy = 0.0;
        for (const SystemKind system :
             {SystemKind::kRpc, SystemKind::kRpcWimpy,
              SystemKind::kCacheRpc, SystemKind::kPulse}) {
            const auto it = g_cells.find(cell_key(app, system));
            if (it == g_cells.end()) {
                row.push_back("-");
                continue;
            }
            row.push_back(fmt(it->second.uj_per_op, "%.1f"));
            if (system == SystemKind::kRpc) {
                rpc = it->second.uj_per_op;
            } else if (system == SystemKind::kRpcWimpy) {
                wimpy = it->second.uj_per_op;
            } else if (system == SystemKind::kPulse) {
                pulse_energy = it->second.uj_per_op;
            }
        }
        row.push_back(pulse_energy > 0 ? fmt(rpc / pulse_energy, "%.2f")
                                       : "-");
        row.push_back(rpc > 0 ? fmt(wimpy / rpc, "%.2f") : "-");
        table.add_row(row);
    }
    table.print();

    Table ppw("Fig 7 (derived): performance per watt, K ops/s/W");
    ppw.set_header({"app", "RPC", "RPC-W", "pulse", "pulse/RPC"});
    for (const App app : kApps) {
        std::vector<std::string> row = {app_name(app)};
        double rpc = 0.0;
        double pulse_ppw = 0.0;
        for (const SystemKind system :
             {SystemKind::kRpc, SystemKind::kRpcWimpy,
              SystemKind::kPulse}) {
            const auto it = g_cells.find(cell_key(app, system));
            if (it == g_cells.end()) {
                row.push_back("-");
                continue;
            }
            row.push_back(fmt(it->second.kops_per_watt, "%.1f"));
            if (system == SystemKind::kRpc) {
                rpc = it->second.kops_per_watt;
            } else if (system == SystemKind::kPulse) {
                pulse_ppw = it->second.kops_per_watt;
            }
        }
        row.push_back(rpc > 0 ? fmt(pulse_ppw / rpc, "%.2f") : "-");
        ppw.add_row(row);
    }
    ppw.print();
}

void
register_benchmarks()
{
    for_each_cell([](App app, SystemKind system) {
        const std::string key = cell_key(app, system);
        benchmark::RegisterBenchmark(
            ("fig7/" + key).c_str(),
            [key](benchmark::State& state) {
                const Cell& cell = g_cells[key];
                for (auto _ : state) {
                }
                state.counters["uJ_per_op"] = cell.uj_per_op;
                state.counters["kops_per_W"] = cell.kops_per_watt;
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
    SweepRunner sweep("fig7");
    add_cells(sweep);
    sweep.run_all();
    register_benchmarks();
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    print_tables();
    MetricsSink::instance().flush();
    return 0;
}
