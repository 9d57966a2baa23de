/**
 * @file
 * Unit tests for the offload engine: the eta offload test, fallback
 * execution, code-installation wire accounting, retransmission
 * give-up, and continuation bookkeeping.
 */
#include <gtest/gtest.h>

#include <cstring>

#include "core/cluster.h"
#include "ds/linked_list.h"
#include "isa/analysis.h"
#include "serve/fleet.h"

namespace pulse::offload {
namespace {

using isa::TraversalStatus;

/** Program whose worst path is ~n ALU instructions per iteration. */
std::shared_ptr<const isa::Program>
compute_heavy_program(std::uint32_t n)
{
    isa::ProgramBuilder b;
    b.load(16);
    for (std::uint32_t i = 0; i < n; i++) {
        b.add(isa::sp(8), isa::sp(8), isa::imm(1));
    }
    b.compare(isa::dat(8), isa::imm(0))
        .jump_eq("done")
        .move(isa::cur(), isa::dat(8))
        .next_iter()
        .label("done")
        .ret();
    return std::make_shared<const isa::Program>(b.build());
}

offload::Completion
run_op(core::Cluster& cluster, Operation op)
{
    Completion result;
    bool done = false;
    op.done = [&](Completion&& completion) {
        result = std::move(completion);
        done = true;
    };
    cluster.offload_engine().submit(std::move(op));
    cluster.queue().run();
    EXPECT_TRUE(done);
    return result;
}

TEST(OffloadDecision, EtaThresholdBoundsOffload)
{
    core::ClusterConfig config;
    core::Cluster cluster(config);
    auto& engine = cluster.offload_engine();
    const Time t_d = config.accel.mem_pipeline_latency;
    const Time t_i = config.accel.logic_time_per_insn;

    // A light program passes; a heavy one fails.
    const auto light = compute_heavy_program(4);
    const auto heavy = compute_heavy_program(200);
    const auto& light_analysis = light->analysis();
    const auto& heavy_analysis = heavy->analysis();
    EXPECT_TRUE(engine.should_offload(light_analysis));
    EXPECT_FALSE(engine.should_offload(heavy_analysis));

    // The boundary is t_c <= eta * t_d exactly.
    EXPECT_LE(compute_time(light_analysis, t_i),
              static_cast<Time>(engine.config().eta_threshold *
                                static_cast<double>(t_d)));
    EXPECT_GT(compute_time(heavy_analysis, t_i),
              static_cast<Time>(engine.config().eta_threshold *
                                static_cast<double>(t_d)));
}

TEST(OffloadDecision, InvalidProgramFailsFast)
{
    core::ClusterConfig config;
    core::Cluster cluster(config);
    std::vector<isa::Instruction> code;
    code.push_back({.op = isa::Opcode::kMove, .dst = isa::sp(0),
                    .src1 = isa::imm(1)});
    auto invalid = std::make_shared<const isa::Program>(
        isa::Program(std::move(code), 64, 16));  // falls off the end
    Operation op;
    op.program = invalid;
    op.start_ptr = 0x1000;
    const Completion completion = run_op(cluster, std::move(op));
    EXPECT_EQ(completion.status, TraversalStatus::kExecFault);
    EXPECT_EQ(cluster.offload_engine().stats().failures.value(), 1u);
}

TEST(OffloadFallback, ExecutesAtClientWithCorrectResult)
{
    core::ClusterConfig config;
    core::Cluster cluster(config);
    ds::LinkedList list(cluster.memory(), cluster.allocator());
    std::vector<std::uint64_t> values;
    for (std::uint64_t v = 0; v < 24; v++) {
        values.push_back(100 + v);
    }
    list.build(values, 0);

    // Heavy per-iteration compute forces the fallback path; the
    // traversal semantics (walk to end, count) still hold.
    auto heavy = compute_heavy_program(200);
    Operation op;
    op.program = heavy;
    op.start_ptr = list.head();
    op.init_scratch.assign(16, 0);
    const Completion completion = run_op(cluster, std::move(op));
    EXPECT_EQ(completion.status, TraversalStatus::kDone);
    EXPECT_FALSE(completion.offloaded);
    EXPECT_EQ(completion.iterations, 24u);
    EXPECT_EQ(cluster.offload_engine().stats().fallback.value(), 1u);
    // sp[8] accumulated 200 per iteration.
    std::uint64_t acc = 0;
    std::memcpy(&acc, completion.scratch.data() + 8, 8);
    EXPECT_EQ(acc, 200u * 24u);
}

TEST(OffloadFallback, PaysOneRoundTripPerLoad)
{
    core::ClusterConfig config;
    core::Cluster cluster(config);
    ds::LinkedList list(cluster.memory(), cluster.allocator());
    std::vector<std::uint64_t> values(40);
    for (std::size_t i = 0; i < values.size(); i++) {
        values[i] = i;
    }
    list.build(values, 0);

    // Offloaded walk.
    const Completion offloaded =
        run_op(cluster, list.make_walk(40, {}));
    EXPECT_TRUE(offloaded.offloaded);

    // Same walk, forced to the fallback (threshold 0).
    core::ClusterConfig strict = config;
    strict.offload.eta_threshold = 0.0;
    core::Cluster strict_cluster(strict);
    ds::LinkedList strict_list(strict_cluster.memory(),
                               strict_cluster.allocator());
    strict_list.build(values, 0);
    const Completion fallback =
        run_op(strict_cluster, strict_list.make_walk(40, {}));
    EXPECT_FALSE(fallback.offloaded);
    EXPECT_EQ(fallback.iterations, offloaded.iterations);
    // ~40 round trips vs 1: at least an order of magnitude slower.
    EXPECT_GT(fallback.latency, offloaded.latency * 10);
}

TEST(OffloadFallback, NullPointerLoopStopsAtTheGlobalGuard)
{
    // A load at kNullAddr reads zeros without a round trip, so a
    // program that never leaves the null pointer loops on the client
    // until the global iteration guard ends it, as on every path.
    core::ClusterConfig config;
    config.offload.eta_threshold = 0.0;  // force the fallback
    core::Cluster cluster(config);
    isa::ProgramBuilder b;
    b.load(8).next_iter();
    Operation op;
    op.program = std::make_shared<const isa::Program>(b.build());
    op.start_ptr = kNullAddr;
    Completion result;
    bool done = false;
    op.done = [&](Completion&& completion) {
        result = std::move(completion);
        done = true;
    };
    cluster.offload_engine().submit(std::move(op));
    // Bounded: without the guard the loop never drains the queue. The
    // guard's 2^20 iterations take about 0.6 s at 600 ns each.
    cluster.queue().run_until(micros(2e6));
    ASSERT_TRUE(done);
    EXPECT_EQ(result.status, TraversalStatus::kMaxIter);
    EXPECT_EQ(result.iterations, kGlobalIterationGuard);
    EXPECT_FALSE(result.offloaded);
    EXPECT_EQ(result.final_ptr, kNullAddr);
}

TEST(OffloadWire, CodeShipsOnlyUntilInstalled)
{
    core::ClusterConfig config;
    config.offload.code_install_sends = 3;
    core::Cluster cluster(config);
    ds::LinkedList list(cluster.memory(), cluster.allocator());
    list.build({1, 2, 3, 4}, 0);

    const auto client = net::EndpointAddr::client(0);
    Bytes previous = 0;
    std::vector<Bytes> request_sizes;
    for (int i = 0; i < 6; i++) {
        run_op(cluster, list.make_find(4, {}));
        const Bytes sent = cluster.network().bytes_sent_by(client);
        request_sizes.push_back(sent - previous);
        previous = sent;
    }
    // First three requests ship code; later ones ship a 16 B id.
    EXPECT_EQ(request_sizes[0], request_sizes[2]);
    EXPECT_LT(request_sizes[4], request_sizes[0]);
    EXPECT_EQ(request_sizes[4], request_sizes[5]);
    EXPECT_EQ(request_sizes[0] - request_sizes[4],
              list.find_program()->wire_code_size() -
                  net::kCodeIdBytes);
}

TEST(OffloadRetransmit, GivesUpAfterMaxRetries)
{
    core::ClusterConfig config;
    config.faults.links.loss = 1.0;  // nothing gets through
    config.offload.retransmit_timeout = micros(20.0);
    config.offload.max_retransmits = 3;
    core::Cluster cluster(config);
    ds::LinkedList list(cluster.memory(), cluster.allocator());
    list.build({1}, 0);

    const Completion completion =
        run_op(cluster, list.make_find(1, {}));
    EXPECT_TRUE(completion.timed_out);
    EXPECT_EQ(completion.retransmits, 3u);
    EXPECT_EQ(cluster.offload_engine().stats().retransmits.value(),
              3u);
    EXPECT_EQ(cluster.offload_engine().inflight(), 0u);
}

/** Closed loop of @p ops list walks, @p concurrency outstanding. */
serve::TenantFleetStats
run_walks(core::Cluster& cluster, std::uint32_t concurrency,
          std::uint64_t ops)
{
    ds::LinkedList list(cluster.memory(), cluster.allocator());
    std::vector<std::uint64_t> values(64);
    for (std::size_t i = 0; i < values.size(); i++) {
        values[i] = i;
    }
    list.build(values, 0);
    serve::TenantLoad load = serve::closed_loop(0, ops, concurrency);
    return serve::run_closed_loop(
        cluster.queue(), cluster.submitter(core::SystemKind::kPulse),
        [&](std::uint64_t i) { return list.make_walk(8 + i % 32, {}); },
        load);
}

TEST(OffloadTimers, HealthyLoopHoldsOnlyLiveEvents)
{
    // Every leg arms a 20 ms retransmit timer and its response
    // quenches it within microseconds. Quenched timers are cancelled,
    // so the queue holds about one timer and one in-transit event per
    // operation in flight, not every timer armed in the last 20 ms.
    constexpr std::uint32_t kConcurrency = 64;
    core::Cluster cluster{core::ClusterConfig{}};
    const serve::TenantFleetStats result =
        run_walks(cluster, kConcurrency, 4000);
    EXPECT_EQ(result.completed, 4000u);
    EXPECT_EQ(result.errors, 0u);
    EXPECT_EQ(cluster.offload_engine().stats().retransmits.value(), 0u);
    EXPECT_LE(cluster.queue().peak_pending(), 2 * kConcurrency + 16);
    EXPECT_TRUE(cluster.queue().empty());
    EXPECT_EQ(cluster.queue().tombstones(), 0u);
}

TEST(OffloadTimers, LossyLoopRetransmitsExactlyAsBefore)
{
    // Cancelling a quenched timer removes only events that would have
    // fired as no-ops: under loss, every live timer still fires at its
    // instant, so the retransmit count is the one the uncancelled
    // timers gave (153 with this seed and profile).
    core::ClusterConfig config;
    config.faults.links.loss = 0.02;
    config.offload.retransmit_timeout = micros(200.0);
    core::Cluster cluster(config);
    const serve::TenantFleetStats result = run_walks(cluster, 32, 2000);
    EXPECT_EQ(result.completed, 2000u);
    EXPECT_EQ(result.errors, 0u);
    EXPECT_EQ(cluster.offload_engine().stats().retransmits.value(),
              153u);
    EXPECT_EQ(cluster.offload_engine().inflight(), 0u);
}

TEST(OffloadContinuation, MaxIterResumesCountsContinuations)
{
    core::ClusterConfig config;
    core::Cluster cluster(config);
    ds::LinkedList list(cluster.memory(), cluster.allocator());
    std::vector<std::uint64_t> values(1200);
    for (std::size_t i = 0; i < values.size(); i++) {
        values[i] = i;
    }
    list.build(values, 0);  // > kDefaultMaxIters

    const Completion completion =
        run_op(cluster, list.make_find(1199, {}));
    EXPECT_EQ(completion.status, TraversalStatus::kDone);
    EXPECT_EQ(completion.iterations, 1200u);
    EXPECT_EQ(completion.continuations, 2u);  // 512 + 512 + 176
    EXPECT_EQ(
        cluster.offload_engine().stats().continuations.value(), 2u);
}

TEST(OffloadAnalysis, CacheReturnsSameObject)
{
    // The program carries its analysis: computed once at construction,
    // the same object on every read.
    auto program = compute_heavy_program(4);
    const auto& first = program->analysis();
    const auto& second = program->analysis();
    EXPECT_EQ(&first, &second);
    EXPECT_TRUE(first.valid);
}

}  // namespace
}  // namespace pulse::offload
