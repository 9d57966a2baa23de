/**
 * @file
 * Ablation: fork/join traversals (SPAWN/REDUCE/JOIN) vs the same range
 * aggregate executed as one sequential pointer chase.
 *
 * The B+Tree is shaped so the root holds exactly 16 children (256
 * leaves at leaf_fill 12, inner_fill 16); a range spanning 2f root
 * subtrees makes the forked root program emit f sub-traversals (one
 * SPAWN per *pair* of subtrees — the leaf sibling chain carries each
 * branch across its pair boundary). Sweeping f in {1, 2, 4, 8} with
 * the keyspace partitioned across 8 memory nodes shows the DAG win:
 * branches traverse their subtrees concurrently on their home nodes
 * while the sequential program walks the same leaves one next-pointer
 * at a time. DESIGN.md's acceptance bar is >= 2x mean latency at
 * fan-out 8.
 *
 * Both variants run the identical deterministic range stream on the
 * same tree, and every op's fold is cross-checked: a forked SUM that
 * completes (kDone) is exact by the join proof, so any divergence from
 * the sequential fold panics the bench.
 */
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "ds/bptree.h"
#include "ds/ds_common.h"
#include "sweep_runner.h"

namespace {

using namespace pulse;
using namespace pulse::bench;

const std::vector<std::uint32_t> kFanouts = {1, 2, 4, 8};

/// 256 leaves -> 16 inners -> one root with 16 children, each subtree
/// covering exactly kEntriesPerChild consecutive entries.
constexpr std::uint32_t kEntries = 3072;
constexpr std::uint32_t kLeafFill = 12;
constexpr std::uint32_t kInnerFill = 16;
constexpr std::uint32_t kRootChildren = 16;
constexpr std::uint32_t kEntriesPerChild = kEntries / kRootChildren;
constexpr std::uint64_t kKeyBase = 100;
constexpr std::uint64_t kKeyStep = 8;

struct ForkPoint
{
    std::uint32_t fanout = 0;
    double seq_us = 0.0;
    double fork_us = 0.0;
    double speedup = 0.0;
    double spawns_per_op = 0.0;
};

std::vector<ForkPoint> g_fork(kFanouts.size());

std::uint64_t
key_at(std::uint64_t index)
{
    return kKeyBase + index * kKeyStep;
}

/** [lo, hi] covering 2*fanout root subtrees, aligned to a pair
 *  boundary; deterministic by op index. */
std::pair<std::uint64_t, std::uint64_t>
range_for(std::uint32_t fanout, std::uint64_t index)
{
    const std::uint64_t pairs = kRootChildren / 2;  // 8
    const std::uint64_t span = 2 * fanout * kEntriesPerChild;
    const std::uint64_t mixed = index * 0x9E3779B97F4A7C15ull;
    const std::uint64_t start_pair = mixed % (pairs - fanout + 1);
    const std::uint64_t lo_idx =
        start_pair * 2 * kEntriesPerChild;
    return {key_at(lo_idx), key_at(lo_idx + span - 1)};
}

void
fork_sweep(CellContext& ctx, std::uint32_t fanout, ForkPoint& out)
{
    out.fanout = fanout;

    core::ClusterConfig config;
    config.num_mem_nodes = 8;
    config.accel.workspaces_per_logic = 16;
    std::string error;
    if (!config.apply_env_knobs(&error)) {
        panic("%s", error.c_str());  // parse_bench_args() checked it
    }
    core::Cluster cluster(config);

    ds::BPTreeConfig bt;
    bt.inline_values = true;
    bt.leaf_slots = kLeafFill;
    bt.leaf_fill = kLeafFill;
    bt.inner_fill = kInnerFill;
    bt.partitions = config.num_mem_nodes;
    ds::BPTree tree(cluster.memory(), cluster.allocator(), bt);
    std::vector<ds::BPTreeEntry> entries;
    entries.reserve(kEntries);
    for (std::uint32_t i = 0; i < kEntries; i++) {
        entries.push_back({key_at(i), ds::value_pattern_word(key_at(i))});
    }
    tree.build(entries);

    const std::uint64_t warmup = scale_ops(12);
    const std::uint64_t measure = scale_ops(120);

    // Cross-run fold check: both variants accumulate the same stream.
    std::uint64_t seq_fold = 0;
    std::uint64_t fork_fold = 0;

    const auto run_variant = [&](bool forked, std::uint64_t* fold) {
        serve::TenantLoad load = serve::closed_loop(warmup, measure, 1);
        const workloads::OpFactory factory =
            [&, forked, fold](std::uint64_t index) {
                const auto [lo, hi] = range_for(fanout, index);
                const offload::CompletionFn done =
                    [forked,
                     fold](const offload::Completion& completion) {
                        const auto agg =
                            forked ? ds::BPTree::parse_aggregate_forked(
                                         completion)
                                   : ds::BPTree::parse_aggregate(
                                         completion, ds::AggKind::kSum);
                        if (!agg.complete) {
                            panic("forkjoin ablation: inexact fold");
                        }
                        *fold += static_cast<std::uint64_t>(agg.value);
                    };
                return forked ? tree.make_aggregate_forked(lo, hi, done)
                              : tree.make_aggregate(
                                    ds::AggKind::kSum, lo, hi, done);
            };
        const serve::TenantFleetStats result = serve::run_closed_loop(
            cluster.queue(),
            cluster.submitter(core::SystemKind::kPulse), factory,
            load);
        ctx.add_events(cluster.queue().events_executed());
        return result;
    };

    const serve::TenantFleetStats seq = run_variant(false, &seq_fold);
    const std::uint64_t forks_before =
        cluster.offload_engine().forks_spawned();
    const serve::TenantFleetStats fork = run_variant(true, &fork_fold);
    const std::uint64_t forks =
        cluster.offload_engine().forks_spawned() - forks_before;

    if (seq_fold != fork_fold) {
        panic("forkjoin ablation: fold mismatch at fanout %u "
              "(seq %llu, fork %llu)",
              fanout, static_cast<unsigned long long>(seq_fold),
              static_cast<unsigned long long>(fork_fold));
    }
    out.seq_us = to_micros(seq.latency.mean());
    out.fork_us = to_micros(fork.latency.mean());
    out.speedup = out.fork_us > 0.0 ? out.seq_us / out.fork_us : 0.0;
    out.spawns_per_op =
        static_cast<double>(forks) /
        static_cast<double>(warmup + measure);
}

void
add_cells(SweepRunner& sweep)
{
    for (std::size_t i = 0; i < kFanouts.size(); i++) {
        const std::uint32_t fanout = kFanouts[i];
        sweep.add("forkjoin_f" + std::to_string(fanout),
                  [fanout, i](CellContext& ctx) {
                      fork_sweep(ctx, fanout, g_fork[i]);
                  });
    }
}

void
register_benchmarks()
{
    for (std::size_t i = 0; i < kFanouts.size(); i++) {
        benchmark::RegisterBenchmark(
            ("ablation/forkjoin_f" + std::to_string(kFanouts[i]))
                .c_str(),
            [i](benchmark::State& state) {
                for (auto _ : state) {
                }
                state.counters["seq_us"] = g_fork[i].seq_us;
                state.counters["fork_us"] = g_fork[i].fork_us;
                state.counters["speedup"] = g_fork[i].speedup;
                state.counters["spawns_per_op"] =
                    g_fork[i].spawns_per_op;
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
    SweepRunner sweep("ablation_forkjoin");
    add_cells(sweep);
    sweep.run_all();
    register_benchmarks();
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    Table table("Ablation: fork/join range aggregates vs sequential "
                "(B+Tree SUM, 8 nodes, range spans 2f root subtrees)");
    table.set_header(
        {"fanout", "seq_us", "fork_us", "speedup", "spawns/op"});
    for (const auto& point : g_fork) {
        table.add_row({std::to_string(point.fanout),
                       fmt(point.seq_us), fmt(point.fork_us),
                       fmt(point.speedup, "%.2f"),
                       fmt(point.spawns_per_op, "%.2f")});
    }
    table.print();
    if (MetricsSink::instance().enabled()) {
        auto& metrics = MetricsSink::instance().exporter();
        for (const auto& point : g_fork) {
            const std::string prefix =
                "forkjoin.f" + std::to_string(point.fanout) + ".";
            metrics.set(prefix + "seq_us", point.seq_us);
            metrics.set(prefix + "fork_us", point.fork_us);
            metrics.set(prefix + "speedup", point.speedup);
            metrics.set(prefix + "spawns_per_op", point.spawns_per_op);
        }
    }
    MetricsSink::instance().flush();
    return 0;
}
