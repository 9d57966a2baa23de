/**
 * @file
 * Shape guards: miniature versions of the paper's headline claims,
 * with generous tolerance bands, so a calibration or model regression
 * breaks `ctest` rather than silently skewing the benches. The full
 * grids live in bench/; these run in seconds at reduced scale.
 */
#include <gtest/gtest.h>

#include "apps/apps.h"
#include "serve/fleet.h"

namespace pulse {
namespace {

using core::Cluster;
using core::ClusterConfig;
using core::SystemKind;

apps::AppScale
tiny_scale()
{
    apps::AppScale scale;
    scale.upc_keys = 30'000;
    scale.tc_keys = 20'000;
    scale.tsv_samples = 80'000;
    return scale;
}

ClusterConfig
base_config(std::uint32_t nodes, Bytes data_bytes)
{
    ClusterConfig config;
    config.num_mem_nodes = nodes;
    config.accel.workspaces_per_logic = 16;
    config.cache.cache_bytes = std::max<Bytes>(
        static_cast<Bytes>(data_bytes * 0.02), 256 * kKiB);
    return config;
}

serve::TenantFleetStats
run_upc(Cluster& cluster, SystemKind system, std::uint32_t concurrency,
        std::uint64_t ops)
{
    apps::UpcApp app(cluster, tiny_scale());
    serve::TenantLoad load =
        serve::closed_loop(std::min<std::uint64_t>(concurrency, 64), ops,
                           concurrency);
    load.on_measure_start = [&cluster] { cluster.reset_stats(); };
    return serve::run_closed_loop(cluster.queue(), cluster.submitter(system),
                           app.factory(), load);
}

TEST(PaperShapes, Fig4_PulseBeatsCacheByAtLeast10x)
{
    ClusterConfig config =
        base_config(1, apps::upc_data_bytes(tiny_scale()));
    Cluster cluster(config);
    const auto pulse_run =
        run_upc(cluster, SystemKind::kPulse, 1, 120);
    const auto cache_run =
        run_upc(cluster, SystemKind::kCache, 1, 40);
    const double ratio =
        static_cast<double>(cache_run.latency.mean()) /
        static_cast<double>(pulse_run.latency.mean());
    EXPECT_GT(ratio, 10.0);
    EXPECT_LT(ratio, 70.0);  // the paper's band tops out at 64x
}

TEST(PaperShapes, Fig4_RpcSlightlyFasterThanPulseSingleNode)
{
    ClusterConfig config =
        base_config(1, apps::upc_data_bytes(tiny_scale()));
    Cluster cluster(config);
    const auto pulse_run =
        run_upc(cluster, SystemKind::kPulse, 1, 150);
    const auto rpc_run = run_upc(cluster, SystemKind::kRpc, 1, 150);
    const double ratio =
        static_cast<double>(pulse_run.latency.mean()) /
        static_cast<double>(rpc_run.latency.mean());
    EXPECT_GT(ratio, 1.0);   // RPC's higher clock wins unloaded...
    EXPECT_LT(ratio, 1.45);  // ...but only by the paper's ~1.25x
}

TEST(PaperShapes, Fig5_PulseMatchesRpcThroughputSingleNode)
{
    ClusterConfig config =
        base_config(1, apps::upc_data_bytes(tiny_scale()));
    Cluster cluster(config);
    const auto pulse_run =
        run_upc(cluster, SystemKind::kPulse, 256, 800);
    const auto rpc_run =
        run_upc(cluster, SystemKind::kRpc, 256, 800);
    const double ratio = pulse_run.throughput() / rpc_run.throughput();
    EXPECT_GT(ratio, 0.8);
    EXPECT_LT(ratio, 1.3);
}

TEST(PaperShapes, Fig6_PulseSaturatesMemoryBandwidth)
{
    ClusterConfig config =
        base_config(1, apps::upc_data_bytes(tiny_scale()));
    Cluster cluster(config);
    const auto result = run_upc(cluster, SystemKind::kPulse, 256, 800);
    const double utilization =
        cluster.memory_bandwidth(result.measure_time) /
        cluster.memory_bandwidth_capacity();
    EXPECT_GT(utilization, 0.85);
    // Network stays a small fraction of the 2x12.5 GB/s port pair.
    const double net =
        static_cast<double>(cluster.client_network_bytes()) /
        to_seconds(result.measure_time);
    EXPECT_LT(net / 25e9, 0.10);
}

TEST(PaperShapes, Fig4_InNetworkContinuationBeatsRpcMultiNode)
{
    // TSV-15 on 2 nodes with glibc-like placement.
    ClusterConfig config =
        base_config(2, apps::tsv_data_bytes(tiny_scale()));
    config.alloc_policy = mem::AllocPolicy::kUniform;
    Cluster cluster(config);
    apps::TsvApp app(cluster, tiny_scale(), 15.0,
                     /*uniform_alloc=*/true);
    const auto run = [&](SystemKind system) {
        serve::TenantLoad load = serve::closed_loop(20, 120, 1);
        return serve::run_closed_loop(cluster.queue(),
                               cluster.submitter(system),
                               app.factory(), load);
    };
    const auto pulse_run = run(SystemKind::kPulse);
    const auto rpc_run = run(SystemKind::kRpc);
    // Paper: 42-55% lower; guard a generous 20-60% band.
    const double reduction =
        1.0 - static_cast<double>(pulse_run.latency.mean()) /
                  static_cast<double>(rpc_run.latency.mean());
    EXPECT_GT(reduction, 0.20);
    EXPECT_LT(reduction, 0.60);
}

TEST(PaperShapes, Table2_IterationCounts)
{
    ClusterConfig config =
        base_config(1, apps::tsv_data_bytes(tiny_scale()));
    Cluster cluster(config);
    apps::UpcApp upc(cluster, tiny_scale());
    serve::TenantLoad load = serve::closed_loop(10, 80, 4);
    const auto upc_run = serve::run_closed_loop(
        cluster.queue(), cluster.submitter(SystemKind::kPulse),
        upc.factory(), load);
    const double upc_iters =
        static_cast<double>(upc_run.iterations) /
        static_cast<double>(upc_run.completed);
    EXPECT_NEAR(upc_iters, 100.0, 30.0);  // paper: ~100

    apps::TsvApp tsv(cluster, tiny_scale(), 30.0);
    const auto tsv_run = serve::run_closed_loop(
        cluster.queue(), cluster.submitter(SystemKind::kPulse),
        tsv.factory(), load);
    const double tsv_iters =
        static_cast<double>(tsv_run.iterations) /
        static_cast<double>(tsv_run.completed);
    EXPECT_NEAR(tsv_iters, 165.0, 25.0);  // paper: 165 at 30 s
}

}  // namespace
}  // namespace pulse
