/**
 * @file
 * Tests for the fault-injection plane and the hardened request path:
 * the RTO estimator against hand-computed sequences, seeded-chaos
 * determinism with exactly-once CAS semantics, duplicate suppression
 * under spurious retransmits, checksum-verified corruption drops,
 * scripted node blackout/stall/slow windows, the driver's failed-op
 * accounting, and RPC's opt-in at-most-once reliable mode.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>

#include "core/cluster.h"
#include "ds/linked_list.h"
#include "isa/assembler.h"
#include "offload/rto_estimator.h"
#include "serve/fleet.h"

namespace pulse::faults {
namespace {

using isa::TraversalStatus;

/** Lock-free fetch-and-add (same recipe as test_cas.cc). */
std::shared_ptr<const isa::Program>
increment_program()
{
    isa::ProgramBuilder b;
    b.load(8)
        .add(isa::sp(0), isa::sp(0), isa::imm(1))
        .add(isa::sp(8), isa::dat(0), isa::imm(1))
        .cas(0, isa::dat(0), isa::sp(8))
        .jump_eq("done")
        .next_iter()
        .label("done")
        .ret();
    return std::make_shared<const isa::Program>(b.build());
}

offload::Completion
run_one(core::Cluster& cluster, offload::Operation op)
{
    offload::Completion result;
    bool done = false;
    op.done = [&](offload::Completion&& completion) {
        result = std::move(completion);
        done = true;
    };
    cluster.submitter(core::SystemKind::kPulse)(std::move(op));
    cluster.queue().run();
    EXPECT_TRUE(done);
    return result;
}

TEST(RtoEstimator, MatchesHandComputedSequence)
{
    // min/max/multiplier neutralized so the raw formula is visible.
    offload::RtoEstimator est(/*initial=*/1000, /*min=*/0,
                              /*max=*/1'000'000'000,
                              /*srtt_multiplier=*/0.0);
    EXPECT_FALSE(est.has_sample());
    EXPECT_EQ(est.rto(), 1000);

    // First sample: srtt = R, rttvar = R/2, rto = srtt + 4*rttvar.
    est.sample(800);
    EXPECT_TRUE(est.has_sample());
    EXPECT_EQ(est.srtt(), 800);
    EXPECT_EQ(est.rttvar(), 400);
    EXPECT_EQ(est.rto(), 800 + 4 * 400);

    // err = 200: rttvar += (|err| - rttvar)/4 = -50 -> 350 (old srtt
    // is used for the error), then srtt += err/8 = +25 -> 825.
    est.sample(1000);
    EXPECT_EQ(est.srtt(), 825);
    EXPECT_EQ(est.rttvar(), 350);
    EXPECT_EQ(est.rto(), 825 + 4 * 350);

    // A dead-on sample shrinks variance only: (0 - 350)/4 = -87.
    est.sample(825);
    EXPECT_EQ(est.srtt(), 825);
    EXPECT_EQ(est.rttvar(), 263);

    est.reset();
    EXPECT_FALSE(est.has_sample());
    EXPECT_EQ(est.rto(), 1000);
}

TEST(RtoEstimator, ClampsAndMultiplierFloor)
{
    // Lower clamp: raw 100 + 4*50 = 300 < min 5000.
    offload::RtoEstimator low(1000, 5000, 1'000'000, 0.0);
    low.sample(100);
    EXPECT_EQ(low.rto(), 5000);

    // Upper clamp: raw 10000 + 4*5000 = 30000 > max 2000.
    offload::RtoEstimator high(1000, 0, 2000, 0.0);
    high.sample(10'000);
    EXPECT_EQ(high.rto(), 2000);

    // Multiplier floor: raw 800 + 4*400 = 2400 < srtt * 4 = 3200.
    offload::RtoEstimator floor(1000, 0, 1'000'000, 4.0);
    floor.sample(800);
    EXPECT_EQ(floor.rto(), 3200);

    // Negative samples clamp to zero instead of corrupting state.
    offload::RtoEstimator neg(1000, 0, 1'000'000, 0.0);
    neg.sample(-500);
    EXPECT_EQ(neg.srtt(), 0);
    EXPECT_EQ(neg.rttvar(), 0);
}

TEST(FaultPlaneWiring, DefaultConfigAttachesNoPlane)
{
    // The strict no-op contract: an all-quiet config constructs no
    // plane at all, so the fault path cannot perturb healthy runs.
    core::ClusterConfig config;
    EXPECT_FALSE(config.faults.enabled());
    core::Cluster cluster(config);
    EXPECT_EQ(cluster.fault_plane(), nullptr);

    core::ClusterConfig faulty;
    faulty.faults.timeline.push_back(
        {.node = 0, .kind = NodeFaultKind::kSlow, .start = 0,
         .end = micros(1.0), .slow_factor = 2.0});
    EXPECT_TRUE(faulty.faults.enabled());
    core::Cluster degraded(faulty);
    ASSERT_NE(degraded.fault_plane(), nullptr);
    EXPECT_TRUE(degraded.fault_plane()->enabled());
}

/** Everything observable about one chaos run, for digest comparison. */
using ChaosDigest =
    std::tuple<std::uint64_t,  // final counter value
               int,            // completions
               std::uint64_t,  // offload retransmits
               std::uint64_t,  // accel duplicates suppressed
               std::uint64_t,  // accel replays sent
               std::uint64_t,  // fault-plane link drops
               std::uint64_t,  // fault-plane corruptions
               std::uint64_t,  // NIC checksum drops
               std::uint64_t,  // network drops (all causes)
               Time>;          // final simulated time

ChaosDigest
run_chaos()
{
    core::ClusterConfig config;
    config.accel.workspaces_per_logic = 8;
    config.offload.adaptive_rto = true;
    config.offload.retransmit_timeout = micros(500.0);
    config.faults.links.loss = 0.01;
    config.faults.links.duplicate = 0.02;
    config.faults.links.corrupt = 0.005;
    config.faults.links.reorder = 0.05;
    config.faults.links.reorder_jitter = micros(2.0);
    core::Cluster cluster(config);

    const VirtAddr counter = cluster.allocator().alloc_on(0, 8, 256);
    cluster.memory().write_as<std::uint64_t>(counter, 0);
    auto program = increment_program();

    const int n = 150;
    int done = 0;
    for (int i = 0; i < n; i++) {
        offload::Operation op;
        op.program = program;
        op.start_ptr = counter;
        op.init_scratch.assign(16, 0);
        op.done = [&](offload::Completion&& completion) {
            EXPECT_EQ(completion.status, TraversalStatus::kDone);
            EXPECT_FALSE(completion.timed_out);
            done++;
        };
        cluster.submitter(core::SystemKind::kPulse)(std::move(op));
    }
    cluster.queue().run();

    const auto& accel = cluster.accelerator(0).stats();
    const auto& plane = cluster.fault_plane()->stats();
    return {cluster.memory().read_as<std::uint64_t>(counter),
            done,
            cluster.offload_engine().stats().retransmits.value(),
            accel.duplicates_suppressed.value(),
            accel.replays_sent.value(),
            plane.link_drops.value(),
            plane.corruptions.value(),
            cluster.network().checksum_drops(),
            cluster.network().packets_dropped(),
            cluster.queue().now()};
}

TEST(FaultChaos, SeededChaosIsDeterministicAndExactlyOnce)
{
    const ChaosDigest first = run_chaos();

    // Every operation completed, and — the exactly-once property —
    // despite loss, duplication, corruption, and retransmission, the
    // shared counter saw each increment exactly once.
    EXPECT_EQ(std::get<1>(first), 150);
    EXPECT_EQ(std::get<0>(first), 150u);

    // The chaos actually happened.
    EXPECT_GT(std::get<2>(first), 0u);  // retransmits
    EXPECT_GT(std::get<5>(first), 0u);  // link drops
    EXPECT_GT(std::get<6>(first), 0u);  // corruptions

    // Same config + seed => bit-identical run, down to the clock.
    const ChaosDigest second = run_chaos();
    EXPECT_EQ(first, second);
}

TEST(FaultChaos, BurstyLossIsSeededDeterministic)
{
    auto run = [] {
        core::ClusterConfig config;
        config.accel.workspaces_per_logic = 8;
        config.offload.retransmit_timeout = micros(300.0);
        config.faults.links.bursty = true;
        config.faults.links.burst_p_enter = 0.02;
        config.faults.links.burst_p_exit = 0.15;
        config.faults.links.burst_loss_bad = 0.7;
        core::Cluster cluster(config);

        ds::LinkedList list(cluster.memory(), cluster.allocator());
        std::vector<std::uint64_t> values(64);
        for (std::size_t i = 0; i < values.size(); i++) {
            values[i] = i;
        }
        list.build(values, 0);

        const int n = 100;
        int done = 0;
        for (int i = 0; i < n; i++) {
            offload::Operation op = list.make_find(63, {});
            op.done = [&](offload::Completion&& completion) {
                EXPECT_EQ(completion.status, TraversalStatus::kDone);
                done++;
            };
            cluster.submitter(core::SystemKind::kPulse)(std::move(op));
        }
        cluster.queue().run();
        EXPECT_EQ(done, n);
        return std::tuple{
            cluster.fault_plane()->stats().burst_drops.value(),
            cluster.offload_engine().stats().retransmits.value(),
            cluster.queue().now()};
    };
    const auto first = run();
    EXPECT_GT(std::get<0>(first), 0u);  // the chain entered bad state
    EXPECT_EQ(first, run());
}

TEST(FaultRetransmit, SpuriousRetransmitsStayExactlyOnce)
{
    // A deliberately absurd fixed timeout fires retransmissions while
    // the original request is still in flight or being served; the
    // accelerator's replay window must absorb every copy.
    core::ClusterConfig config;
    config.accel.workspaces_per_logic = 8;
    config.offload.adaptive_rto = false;
    config.offload.retransmit_timeout = micros(6.0);
    config.offload.max_retransmits = 20;
    core::Cluster cluster(config);

    const VirtAddr counter = cluster.allocator().alloc_on(0, 8, 256);
    cluster.memory().write_as<std::uint64_t>(counter, 0);
    auto program = increment_program();

    const int n = 60;
    int done = 0;
    for (int i = 0; i < n; i++) {
        offload::Operation op;
        op.program = program;
        op.start_ptr = counter;
        op.init_scratch.assign(16, 0);
        op.done = [&](offload::Completion&& completion) {
            EXPECT_EQ(completion.status, TraversalStatus::kDone);
            EXPECT_FALSE(completion.timed_out);
            done++;
        };
        cluster.submitter(core::SystemKind::kPulse)(std::move(op));
    }
    cluster.queue().run();

    EXPECT_EQ(done, n);
    EXPECT_EQ(cluster.memory().read_as<std::uint64_t>(counter),
              static_cast<std::uint64_t>(n));
    EXPECT_EQ(cluster.accelerator(0).stats().cas_ops.value(),
              static_cast<std::uint64_t>(n));
    // The timer did fire early, and the window did its job.
    EXPECT_GT(cluster.offload_engine().stats().retransmits.value(),
              0u);
    const auto& accel = cluster.accelerator(0).stats();
    EXPECT_GT(accel.duplicates_suppressed.value() +
                  accel.replays_sent.value(),
              0u);
}

TEST(FaultChecksum, CorruptedHeadersAreDroppedAtTheNic)
{
    core::ClusterConfig config;
    config.accel.workspaces_per_logic = 8;
    config.offload.retransmit_timeout = micros(100.0);
    config.faults.links.corrupt = 0.05;
    core::Cluster cluster(config);

    const VirtAddr counter = cluster.allocator().alloc_on(0, 8, 256);
    cluster.memory().write_as<std::uint64_t>(counter, 0);
    auto program = increment_program();

    const int n = 80;
    int done = 0;
    for (int i = 0; i < n; i++) {
        offload::Operation op;
        op.program = program;
        op.start_ptr = counter;
        op.init_scratch.assign(16, 0);
        op.done = [&](offload::Completion&& completion) {
            EXPECT_EQ(completion.status, TraversalStatus::kDone);
            done++;
        };
        cluster.submitter(core::SystemKind::kPulse)(std::move(op));
    }
    cluster.queue().run();

    EXPECT_EQ(done, n);
    // Corrupted requests were detected, discarded, and never
    // executed: the counter is still exact.
    EXPECT_EQ(cluster.memory().read_as<std::uint64_t>(counter),
              static_cast<std::uint64_t>(n));
    EXPECT_GT(cluster.fault_plane()->stats().corruptions.value(), 0u);
    EXPECT_GT(cluster.network().checksum_drops(), 0u);
}

TEST(FaultNodes, ShortBlackoutIsRiddenOutByRetransmission)
{
    core::ClusterConfig config;
    config.offload.retransmit_timeout = micros(50.0);
    config.faults.timeline.push_back(
        {.node = 0, .kind = NodeFaultKind::kBlackout, .start = 0,
         .end = micros(150.0)});
    core::Cluster cluster(config);

    ds::LinkedList list(cluster.memory(), cluster.allocator());
    list.build({1, 2, 3, 4}, 0);

    const offload::Completion completion =
        run_one(cluster, list.make_find(4, {}));
    EXPECT_EQ(completion.status, TraversalStatus::kDone);
    EXPECT_FALSE(completion.timed_out);
    // Nothing could get through before the node came back.
    EXPECT_GT(completion.latency, micros(150.0));
    EXPECT_GT(completion.retransmits, 0u);
    EXPECT_GT(cluster.fault_plane()->stats().blackout_drops.value(),
              0u);
}

TEST(FaultNodes, StallHoldsPacketsUntilRelease)
{
    core::ClusterConfig config;
    config.faults.timeline.push_back(
        {.node = 0, .kind = NodeFaultKind::kStall, .start = 0,
         .end = micros(40.0)});
    core::Cluster cluster(config);

    ds::LinkedList list(cluster.memory(), cluster.allocator());
    list.build({1, 2, 3, 4}, 0);

    const offload::Completion completion =
        run_one(cluster, list.make_find(4, {}));
    EXPECT_EQ(completion.status, TraversalStatus::kDone);
    // No loss: the request was merely parked at the frozen NIC, so no
    // retransmission was needed — just a latency bubble.
    EXPECT_EQ(completion.retransmits, 0u);
    EXPECT_GT(completion.latency, micros(40.0));
    EXPECT_GT(cluster.fault_plane()->stats().stall_holds.value(), 0u);
}

TEST(FaultNodes, SlowWindowStretchesAcceleratorLatency)
{
    auto run = [](double slow_factor) {
        core::ClusterConfig config;
        if (slow_factor > 1.0) {
            config.faults.timeline.push_back(
                {.node = 0, .kind = NodeFaultKind::kSlow, .start = 0,
                 .end = micros(100'000.0), .slow_factor = slow_factor});
        }
        core::Cluster cluster(config);
        ds::LinkedList local(cluster.memory(), cluster.allocator());
        std::vector<std::uint64_t> values(32);
        for (std::size_t i = 0; i < values.size(); i++) {
            values[i] = i;
        }
        local.build(values, 0);
        return run_one(cluster, local.make_find(31, {})).latency;
    };
    const Time healthy = run(1.0);
    const Time degraded = run(8.0);
    EXPECT_GT(degraded, healthy);
}

TEST(FaultAdaptiveRto, ConvergesBelowInitialAndStaysQuiet)
{
    core::ClusterConfig config;
    config.offload.adaptive_rto = true;
    core::Cluster cluster(config);
    ds::LinkedList list(cluster.memory(), cluster.allocator());
    list.build({1, 2, 3, 4, 5, 6, 7, 8}, 0);

    for (int i = 0; i < 40; i++) {
        run_one(cluster, list.make_find(8, {}));
    }
    const auto& engine = cluster.offload_engine();
    EXPECT_TRUE(engine.rto_estimator().has_sample());
    EXPECT_GT(engine.rto_estimator().srtt(), 0);
    // Converged well below the 20 ms initial timeout...
    EXPECT_LT(engine.rto_estimator().rto(),
              engine.config().retransmit_timeout);
    // ...without ever firing spuriously on a healthy network.
    EXPECT_EQ(engine.stats().retransmits.value(), 0u);
    EXPECT_EQ(engine.stats().stale_responses.value(), 0u);
}

TEST(FaultGiveUp, DriverExcludesFailedOpsFromLatency)
{
    core::ClusterConfig config;
    config.faults.links.loss = 1.0;  // nothing gets through
    config.offload.retransmit_timeout = micros(20.0);
    config.offload.max_retransmits = 2;
    core::Cluster cluster(config);
    ds::LinkedList list(cluster.memory(), cluster.allocator());
    list.build({1}, 0);

    serve::TenantLoad load = serve::closed_loop(1, 4, 1);
    const serve::TenantFleetStats result = serve::run_closed_loop(
        cluster.queue(), cluster.submitter(core::SystemKind::kPulse),
        [&](std::uint64_t) { return list.make_find(1, {}); }, load);

    EXPECT_EQ(result.finished(), 4u);
    EXPECT_EQ(result.failed, 4u);
    EXPECT_EQ(result.errors, 4u);
    // Give-up "latencies" are timeout-ladder artifacts, not service
    // times; they must not pollute the histogram.
    EXPECT_EQ(result.latency.count(), 0u);
}

TEST(FaultRpc, ReliableModeIsAtMostOnceUnderLoss)
{
    core::ClusterConfig config;
    // The plane judges uplink and downlink: a send is lost with
    // probability 0.08.
    config.faults.links.loss = 1.0 - std::sqrt(1.0 - 0.08);
    config.rpc.retransmit_timeout = micros(300.0);
    core::Cluster cluster(config);

    const VirtAddr counter = cluster.allocator().alloc_on(0, 8, 256);
    cluster.memory().write_as<std::uint64_t>(counter, 0);
    auto program = increment_program();

    const int n = 60;
    int done = 0;
    for (int i = 0; i < n; i++) {
        offload::Operation op;
        op.program = program;
        op.start_ptr = counter;
        op.init_scratch.assign(16, 0);
        op.done = [&](offload::Completion&& completion) {
            EXPECT_EQ(completion.status, TraversalStatus::kDone);
            EXPECT_FALSE(completion.timed_out);
            done++;
        };
        cluster.submitter(core::SystemKind::kRpc)(std::move(op));
    }
    cluster.queue().run();

    // Loss happened and was recovered — yet no increment ran twice.
    EXPECT_EQ(done, n);
    EXPECT_EQ(cluster.memory().read_as<std::uint64_t>(counter),
              static_cast<std::uint64_t>(n));
    EXPECT_GT(cluster.rpc().stats().retransmits.value(), 0u);
    EXPECT_EQ(cluster.rpc().stats().failures.value(), 0u);
}

}  // namespace
}  // namespace pulse::faults
