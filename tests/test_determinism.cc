/**
 * @file
 * Determinism: two identically-configured simulations must produce
 * bit-identical results and timings. Every benchmark number in
 * EXPERIMENTS.md rests on this property — equal-timestamp events run
 * in FIFO insertion order and all randomness is seeded.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "apps/apps.h"
#include "workloads/driver.h"

namespace pulse {
namespace {

struct RunDigest
{
    std::uint64_t completed = 0;
    std::uint64_t iterations = 0;
    Time mean = 0;
    Time p99 = 0;
    Time measure_time = 0;
    Bytes client_bytes = 0;
    std::uint64_t accel_loads = 0;

    friend bool operator==(const RunDigest&,
                           const RunDigest&) = default;
};

RunDigest
run_once(core::SystemKind system, std::uint32_t concurrency)
{
    core::ClusterConfig config;
    config.num_mem_nodes = 2;
    config.accel.workspaces_per_logic = 8;
    core::Cluster cluster(config);
    apps::AppScale scale;
    scale.upc_keys = 25'000;
    apps::UpcApp app(cluster, scale);

    workloads::DriverConfig driver;
    driver.warmup_ops = 30;
    driver.measure_ops = 300;
    driver.concurrency = concurrency;
    driver.on_measure_start = [&cluster] { cluster.reset_stats(); };
    const auto result =
        run_closed_loop(cluster.queue(), cluster.submitter(system),
                        app.factory(), driver);

    RunDigest digest;
    digest.completed = result.completed;
    digest.iterations = result.iterations;
    digest.mean = result.latency.mean();
    digest.p99 = result.latency.percentile(0.99);
    digest.measure_time = result.measure_time;
    digest.client_bytes = cluster.client_network_bytes();
    for (NodeId node = 0; node < 2; node++) {
        digest.accel_loads +=
            cluster.accelerator(node).stats().loads.value();
    }
    return digest;
}

TEST(Determinism, PulseUnloadedRunsAreBitIdentical)
{
    EXPECT_EQ(run_once(core::SystemKind::kPulse, 1),
              run_once(core::SystemKind::kPulse, 1));
}

TEST(Determinism, PulseLoadedRunsAreBitIdentical)
{
    EXPECT_EQ(run_once(core::SystemKind::kPulse, 64),
              run_once(core::SystemKind::kPulse, 64));
}

TEST(Determinism, BaselinesAreBitIdenticalToo)
{
    for (const core::SystemKind system :
         {core::SystemKind::kRpc, core::SystemKind::kCache}) {
        EXPECT_EQ(run_once(system, 8), run_once(system, 8))
            << core::system_name(system);
    }
}

TEST(Determinism, LossyNetworkIsSeededDeterministic)
{
    const auto run = [] {
        core::ClusterConfig config;
        // The plane judges uplink and downlink: a send is lost with
        // probability 0.05.
        config.faults.links.loss = 1.0 - std::sqrt(1.0 - 0.05);
        config.offload.retransmit_timeout = micros(300.0);
        core::Cluster cluster(config);
        apps::AppScale scale;
        scale.upc_keys = 5'000;
        apps::UpcApp app(cluster, scale);
        workloads::DriverConfig driver;
        driver.warmup_ops = 0;
        driver.measure_ops = 100;
        driver.concurrency = 4;
        const auto result = run_closed_loop(
            cluster.queue(),
            cluster.submitter(core::SystemKind::kPulse),
            app.factory(), driver);
        return std::make_tuple(
            result.completed, result.errors,
            result.latency.mean(),
            cluster.offload_engine().stats().retransmits.value(),
            cluster.network().packets_dropped());
    };
    EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace pulse
