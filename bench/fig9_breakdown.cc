/**
 * @file
 * Fig. 9 — Latency breakdown for pulse accelerator components
 * (section 7.2), on the hash-table data structure.
 *
 * Paper numbers: network stack ~430 ns per packet direction,
 * scheduler dispatch ~4 ns, memory pipeline ~120 ns per iteration
 * (translation + protection + aggregated load), logic pipeline ~7 ns
 * per iteration for the hash-table program; response path symmetric.
 *
 * The single cell executes on the sweep runner so its wall-clock and
 * events/sec self-profile land in the shared wallclock artifact.
 */
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "ds/hash_table.h"
#include "sweep_runner.h"

namespace {

using namespace pulse;
using namespace pulse::bench;

struct Breakdown
{
    double net_stack_ns = 0.0;
    double scheduler_ns = 0.0;
    double mem_per_iter_ns = 0.0;
    double logic_per_iter_ns = 0.0;
    double iters = 0.0;
    double total_accel_us = 0.0;
    double end_to_end_us = 0.0;
};

Breakdown g_result;

void
breakdown_cell(CellContext& ctx)
{
    core::ClusterConfig config;
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
    ctx.add_events(cluster.queue().events_executed());

    const auto& stats = cluster.accelerator(0).stats();
    const double requests =
        static_cast<double>(stats.requests_received.value());
    const double iters =
        static_cast<double>(stats.iterations.value());
    const double loads = static_cast<double>(stats.loads.value());
    g_result.net_stack_ns =
        stats.net_stack_time.sum() / (2.0 * requests) / 1e3;
    g_result.scheduler_ns =
        stats.scheduler_time.sum() / requests / 1e3;
    g_result.mem_per_iter_ns =
        stats.mem_pipeline_time.sum() / loads / 1e3;
    g_result.logic_per_iter_ns =
        stats.logic_pipeline_time.sum() / iters / 1e3;
    g_result.iters = iters / requests;
    g_result.total_accel_us =
        (stats.net_stack_time.sum() + stats.scheduler_time.sum() +
         stats.mem_pipeline_time.sum() +
         stats.logic_pipeline_time.sum()) /
        requests / 1e6;
    g_result.end_to_end_us = to_micros(result.latency.mean());
}

void
register_benchmarks()
{
    benchmark::RegisterBenchmark(
        "fig9/hash_table_breakdown",
        [](benchmark::State& state) {
            for (auto _ : state) {
            }
            state.counters["net_stack_ns"] = g_result.net_stack_ns;
            state.counters["scheduler_ns"] = g_result.scheduler_ns;
            state.counters["mem_per_iter_ns"] =
                g_result.mem_per_iter_ns;
            state.counters["logic_per_iter_ns"] =
                g_result.logic_per_iter_ns;
        })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
}

}  // namespace

int
main(int argc, char** argv)
{
    parse_bench_args(argc, argv);
    benchmark::Initialize(&argc, argv);
    SweepRunner sweep("fig9");
    sweep.add("hash_table_breakdown", breakdown_cell);
    sweep.run_all();
    register_benchmarks();
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    Table table("Fig 9: pulse accelerator latency breakdown "
                "(hash-table find)");
    table.set_header({"component", "measured", "paper"});
    table.add_row({"net stack/pkt",
                   fmt(g_result.net_stack_ns, "%.0f ns"), "~430 ns"});
    table.add_row({"scheduler",
                   fmt(g_result.scheduler_ns, "%.0f ns"), "~4 ns"});
    table.add_row({"mem pipe/iter",
                   fmt(g_result.mem_per_iter_ns, "%.0f ns"),
                   "~120 ns"});
    table.add_row({"logic/iter",
                   fmt(g_result.logic_per_iter_ns, "%.1f ns"),
                   "~7 ns"});
    table.add_row({"iters/req", fmt(g_result.iters, "%.1f"), "-"});
    table.add_row({"accel total",
                   fmt(g_result.total_accel_us, "%.1f us"), "-"});
    table.add_row({"end-to-end",
                   fmt(g_result.end_to_end_us, "%.1f us"), "-"});
    table.print();

    auto& metrics = MetricsSink::instance().exporter();
    metrics.set("fig9.net_stack_ns", g_result.net_stack_ns);
    metrics.set("fig9.scheduler_ns", g_result.scheduler_ns);
    metrics.set("fig9.mem_per_iter_ns", g_result.mem_per_iter_ns);
    metrics.set("fig9.logic_per_iter_ns", g_result.logic_per_iter_ns);
    metrics.set("fig9.iters_per_req", g_result.iters);
    metrics.set("fig9.accel_total_us", g_result.total_accel_us);
    metrics.set("fig9.end_to_end_us", g_result.end_to_end_us);
    MetricsSink::instance().flush();
    return 0;
}
