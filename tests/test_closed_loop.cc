/**
 * @file
 * Closed-loop tenant tests: a retried operation rides out a blackout
 * the engine's retransmit ladder gives up on, exhausted retries are
 * counted as failures, max_retries=0 keeps the engine give-up, the
 * jittered backoff stream is deterministic, and a closed-loop tenant
 * shares one fleet with an open-loop tenant.
 */
#include <gtest/gtest.h>

#include <memory>

#include "core/cluster.h"
#include "ds/linked_list.h"
#include "isa/program.h"
#include "serve/fleet.h"

namespace pulse::serve {
namespace {

isa::Program
load_program()
{
    isa::ProgramBuilder b;
    b.load(8).move(isa::sp(0, 8), isa::dat(0, 8)).ret();
    b.scratch_bytes(8);
    return b.build();
}

/**
 * A 2-node cluster whose node 0 is dark for [1us, @p outage_end) with
 * an engine retransmit ladder short enough to give up mid-outage
 * (3 retransmits of 20us), so the closed loop's retry policy is what
 * decides whether operations targeting node 0 ever complete.
 */
core::ClusterConfig
blackout_config(Time outage_end)
{
    core::ClusterConfig config;
    config.num_mem_nodes = 2;
    config.offload.retransmit_timeout = micros(20.0);
    config.offload.max_retransmits = 3;
    config.faults.timeline.push_back(faults::NodeFaultWindow{
        /*node=*/0, faults::NodeFaultKind::kBlackout, micros(1.0),
        outage_end});
    return config;
}

TenantFleetStats
run_reads(core::Cluster& cluster, std::uint32_t concurrency,
          std::uint32_t max_retries, Time retry_backoff, int total)
{
    auto program =
        std::make_shared<const isa::Program>(load_program());
    const VirtAddr va = cluster.allocator().alloc_on(0, 64, 8);
    EXPECT_NE(va, kNullAddr);
    cluster.memory().write_as<std::uint64_t>(va, 42);
    TenantLoad load = closed_loop(0, total, concurrency);
    load.max_retries = max_retries;
    load.retry_backoff = retry_backoff;
    return run_closed_loop(
        cluster.queue(), cluster.submitter(core::SystemKind::kPulse),
        [&, program](std::uint64_t) {
            offload::Operation op;
            op.program = program;
            op.start_ptr = va;
            op.init_scratch.assign(8, 0);
            return op;
        },
        load);
}

TEST(DriverRetry, RetriesThroughOutage)
{
    // The outage ends at 600us; the engine gives up long before that,
    // so only retried resubmissions can complete the operations.
    core::Cluster cluster(blackout_config(micros(600.0)));
    const TenantFleetStats result =
        run_reads(cluster, 4, 12, micros(100.0), 32);

    EXPECT_EQ(result.completed, 32u);
    EXPECT_EQ(result.errors, 0u);
    EXPECT_GT(result.retries(), 0u);
    EXPECT_EQ(result.failed, 0u);
}

TEST(DriverRetry, ExhaustionIsCountedSeparately)
{
    // The outage outlasts the whole retry budget: every operation
    // fails terminally after its budget of resubmissions.
    core::Cluster cluster(blackout_config(micros(50000.0)));
    const TenantFleetStats result =
        run_reads(cluster, 2, 2, micros(50.0), 8);

    EXPECT_EQ(result.finished(), 8u);
    EXPECT_EQ(result.completed, 0u);
    EXPECT_EQ(result.errors, 8u);
    // With max_retries > 0, every failure exhausted its budget.
    EXPECT_EQ(result.failed, 8u);
    EXPECT_EQ(result.retries(), 16u);  // 2 resubmissions per op
    EXPECT_EQ(result.timeout_retries, 16u);
}

TEST(DriverRetry, DisabledByDefaultKeepsSeedBehaviour)
{
    core::Cluster cluster(blackout_config(micros(50000.0)));
    const TenantFleetStats result =
        run_reads(cluster, 2, 0, micros(500.0), 8);

    // No resubmissions: every op surfaces the engine give-up directly.
    EXPECT_EQ(result.finished(), 8u);
    EXPECT_EQ(result.failed, 8u);
    EXPECT_EQ(result.retries(), 0u);
}

TEST(DriverRetry, BackoffIsDeterministic)
{
    auto run_once = [] {
        core::Cluster cluster(blackout_config(micros(600.0)));
        return run_reads(cluster, 4, 12, micros(100.0), 32);
    };
    const TenantFleetStats a = run_once();
    const TenantFleetStats b = run_once();
    EXPECT_EQ(a.retries(), b.retries());
    EXPECT_EQ(a.measure_time, b.measure_time);
    EXPECT_EQ(a.latency.count(), b.latency.count());
    EXPECT_EQ(a.latency.mean(), b.latency.mean());
}

/** What one mixed run reports: both tenants' stats, the fleet digest,
 *  and how many closed-loop operations kept their builder's tenant. */
struct MixedRun
{
    TenantFleetStats open;
    TenantFleetStats closed;
    std::uint64_t digest = 0;
    std::uint64_t kept_tenant = 0;
    bool measured = false;
};

MixedRun
run_mixed()
{
    core::Cluster cluster(core::ClusterConfig{});
    ds::LinkedList list(cluster.memory(), cluster.allocator());
    std::vector<std::uint64_t> values(32);
    for (std::size_t i = 0; i < values.size(); i++) {
        values[i] = i;
    }
    list.build(values, 0);

    MixedRun run;
    FleetConfig config;
    TenantLoad open;
    open.id = 0;
    open.arrivals = ArrivalKind::kDeterministic;
    open.rate_ops_per_s = 2e5;
    open.keyspace = 32;
    open.total_ops = 100;
    config.tenants.push_back(open);
    TenantLoad closed = closed_loop(10, 50, 4);
    closed.id = 1;
    closed.on_measure_start = [&run] { run.measured = true; };
    config.tenants.push_back(closed);

    const workloads::SubmitFn submit =
        cluster.submitter(core::SystemKind::kPulse);
    Fleet fleet(
        cluster.queue(), config,
        [&list](TenantId, std::uint64_t key) {
            offload::Operation op = list.make_find(key % 32, nullptr);
            op.tenant = 7;  // the fleet restamps open-loop operations
            return op;
        },
        [&](TenantId tenant, offload::Operation&& op) {
            if (tenant == 1 && op.tenant == 7) {
                run.kept_tenant++;
            }
            submit(std::move(op));
        });
    fleet.start(kSecond);
    cluster.queue().run();
    run.open = fleet.stats().at(0);
    run.closed = fleet.stats().at(1);
    run.digest = fleet.completion_digest();
    EXPECT_EQ(fleet.outstanding(), 0u);
    return run;
}

TEST(ClosedLoop, SharesAFleetWithAnOpenLoopTenant)
{
    const MixedRun first = run_mixed();
    EXPECT_EQ(first.open.arrivals, 100u);
    EXPECT_EQ(first.open.completed, 100u);
    EXPECT_EQ(first.open.failed, 0u);

    EXPECT_TRUE(first.measured);
    EXPECT_EQ(first.closed.arrivals, 60u);
    EXPECT_EQ(first.closed.issued, 60u);
    EXPECT_EQ(first.closed.completed, 50u);
    EXPECT_EQ(first.closed.latency.count(), 50u);
    EXPECT_EQ(first.closed.errors, 0u);
    EXPECT_GT(first.closed.measure_time, 0);
    EXPECT_GT(first.closed.throughput(), 0.0);
    EXPECT_EQ(first.kept_tenant, 60u);

    const MixedRun second = run_mixed();
    EXPECT_EQ(first.digest, second.digest);
    EXPECT_EQ(first.closed.measure_time, second.closed.measure_time);
}

}  // namespace
}  // namespace pulse::serve
