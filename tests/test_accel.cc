/**
 * @file
 * Unit tests for the pulse accelerator model: request execution,
 * protection faults, malformed-code rejection, per-visit iteration
 * budgets, queue-overflow behaviour, and component-time accounting.
 */
#include <gtest/gtest.h>

#include <cstring>

#include "accel/accelerator.h"
#include "check/invariants.h"
#include "isa/program.h"

namespace pulse::accel {
namespace {

using isa::TraversalStatus;

/** Harness: one client endpoint + one accelerator node. */
struct AccelFixture : ::testing::Test
{
    AccelFixture()
        : memory(1, 64 * kMiB),
          channels(2, gbps_bytes(17.0), 12.5 / 17.0)
    {
        net::NetworkConfig net_config;
        net_config.num_clients = 1;
        net_config.num_mem_nodes = 1;
        network = std::make_unique<net::Network>(queue, net_config);
        const auto& region = memory.address_map().region(0);
        network->switch_table().add_rule(
            {region.base, region.size, 0});
        network->attach_traversal_sink(
            net::EndpointAddr::client(0), [this](net::PacketHandle packet) {
                responses.push_back(network->packets()[packet]);
                network->packets().release(packet);
            });
    }

    Accelerator&
    make_accel(const AccelConfig& config = {})
    {
        accel = std::make_unique<Accelerator>(queue, *network, memory,
                                              channels, 0, config);
        const auto& region = memory.address_map().region(0);
        // Default full-region read-write mapping (cluster-style).
        if (accel->tcam().size() == 0) {
            accel->tcam().insert(
                {region.base, region.size, 0, mem::Perm::kReadWrite});
        }
        return *accel;
    }

    /** Build a chain of @p n 64 B nodes; returns the head. */
    VirtAddr
    build_chain(std::uint64_t n)
    {
        const VirtAddr base = memory.address_map().region(0).base;
        for (std::uint64_t i = 0; i < n; i++) {
            const VirtAddr addr = base + i * 64;
            memory.write_as<std::uint64_t>(addr, i + 1);  // value
            memory.write_as<std::uint64_t>(
                addr + 8, i + 1 < n ? addr + 64 : kNullAddr);
        }
        return base;
    }

    /** Chain-walk program: count nodes into sp[0]. */
    std::shared_ptr<const isa::Program>
    count_program(std::uint32_t max_iters = 512)
    {
        isa::ProgramBuilder b;
        b.load(16)
            .add(isa::sp(0), isa::sp(0), isa::imm(1))
            .compare(isa::dat(8), isa::imm(0))
            .jump_eq("done")
            .move(isa::cur(), isa::dat(8))
            .next_iter()
            .label("done")
            .ret();
        b.max_iters(max_iters);
        return std::make_shared<const isa::Program>(b.build());
    }

    void
    submit(std::shared_ptr<const isa::Program> program, VirtAddr start,
           std::uint64_t seq = 1)
    {
        // Packets hold non-owning program references; pin the program
        // for the fixture's lifetime (the engine does this in prod).
        pinned_programs_.push_back(std::move(program));
        net::TraversalPacket packet;
        packet.id = RequestId{0, seq};
        packet.origin = 0;
        packet.cur_ptr = start;
        attach_program(packet, pinned_programs_.back());
        packet.scratch.assign(16, 0);
        network->send_traversal(net::EndpointAddr::client(0),
                                network->packets().acquire(packet));
    }

    std::uint64_t
    scratch_word(const net::TraversalPacket& packet, std::uint32_t off)
    {
        std::uint64_t word = 0;
        std::memcpy(&word, packet.scratch.data() + off, 8);
        return word;
    }

    sim::EventQueue queue;
    mem::GlobalMemory memory;
    mem::ChannelSet channels;
    std::unique_ptr<net::Network> network;
    std::unique_ptr<Accelerator> accel;
    std::vector<net::TraversalPacket> responses;
    std::vector<std::shared_ptr<const isa::Program>> pinned_programs_;
};

TEST_F(AccelFixture, ExecutesTraversalAndResponds)
{
    Accelerator& accelerator = make_accel();
    const VirtAddr head = build_chain(10);
    submit(count_program(), head);
    queue.run();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].status, TraversalStatus::kDone);
    EXPECT_EQ(scratch_word(responses[0], 0), 10u);
    EXPECT_EQ(responses[0].iterations_done, 10u);
    EXPECT_EQ(accelerator.stats().loads.value(), 10u);
    EXPECT_EQ(accelerator.stats().responses_sent.value(), 1u);
    EXPECT_EQ(accelerator.inflight(), 0u);
}

TEST_F(AccelFixture, LatencyMatchesComponentModel)
{
    make_accel();
    const VirtAddr head = build_chain(100);
    const Time start = queue.now();
    submit(count_program(), head);
    queue.run();
    ASSERT_EQ(responses.size(), 1u);
    // End-to-end here = 2 network trips + 2x430ns stack + 4ns sched +
    // 100x(120ns + ~6ns logic). Bound it loosely.
    const Time elapsed = queue.now() - start;
    EXPECT_GT(elapsed, micros(12.0));
    EXPECT_LT(elapsed, micros(30.0));
    (void)start;
}

TEST_F(AccelFixture, PerVisitIterationBudget)
{
    make_accel();
    const VirtAddr head = build_chain(100);
    submit(count_program(/*max_iters=*/32), head);
    queue.run();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].status, TraversalStatus::kMaxIter);
    EXPECT_EQ(responses[0].iterations_done, 32u);
    // Continuation carries cur_ptr + scratch; a re-issued visit picks
    // up where it stopped.
    const VirtAddr resume = responses[0].cur_ptr;
    const auto resumed_program = count_program(32);
    net::TraversalPacket packet;
    packet.id = RequestId{0, 2};
    packet.cur_ptr = resume;
    packet.iterations_done = responses[0].iterations_done;
    attach_program(packet, resumed_program);
    packet.scratch = responses[0].scratch;
    network->send_traversal(net::EndpointAddr::client(0),
                            network->packets().acquire(packet));
    queue.run();
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(responses[1].iterations_done, 64u);
}

TEST_F(AccelFixture, ProtectionFaultReported)
{
    AccelConfig config;
    Accelerator& accelerator = make_accel(config);
    // Remove the RW mapping, install read-only over a sub-range and
    // leave the rest unmapped.
    const auto& region = memory.address_map().region(0);
    accelerator.tcam().remove(region.base);
    accelerator.tcam().insert(
        {region.base, 4096, 0, mem::Perm::kWrite});  // no read!
    const VirtAddr head = build_chain(3);
    submit(count_program(), head);
    queue.run();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].status, TraversalStatus::kMemFault);
    EXPECT_EQ(accelerator.stats().protection_faults.value(), 1u);
}

TEST_F(AccelFixture, MalformedProgramRejected)
{
    make_accel();
    // Backward jump: fails accelerator-side verification.
    std::vector<isa::Instruction> code;
    code.push_back({.op = isa::Opcode::kLoad, .src1 = isa::imm(16)});
    code.push_back({.op = isa::Opcode::kJump,
                    .cond = isa::Cond::kAlways, .target = 0});
    code.push_back({.op = isa::Opcode::kReturn});
    auto bad = std::make_shared<const isa::Program>(
        isa::Program(std::move(code), 64, 16));
    submit(bad, build_chain(2));
    queue.run();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].status, TraversalStatus::kExecFault);
    EXPECT_EQ(responses[0].fault, isa::ExecFault::kIllegalInstruction);
}

TEST_F(AccelFixture, NotLocalPointerBouncesViaSwitchPolicy)
{
    make_accel();
    const VirtAddr head = build_chain(3);
    // Patch node 1's next pointer to an address outside this node's
    // TCAM (but also outside the switch table -> client memfault).
    memory.write_as<std::uint64_t>(head + 8, 0xDEAD000ull);
    submit(count_program(), head);
    queue.run();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].status, TraversalStatus::kMemFault);
}

TEST_F(AccelFixture, RestartedBounceIsNotADuplicateExecution)
{
    // A retransmit of a visit whose cached response is a zero-progress
    // kNotLocal bounce re-executes on purpose (replay_.restart). The
    // exactly-once checker must not report that as a duplicate.
    Accelerator& accelerator = make_accel();
    check::InvariantRegistry registry;
    accelerator.set_invariants(&registry);
    // The switch routes this address here, but the TCAM no longer maps
    // it: the visit bounces before its first iteration.
    const VirtAddr away = memory.address_map().region(0).base + kMiB;
    ASSERT_TRUE(accelerator.tcam().punch(away, 4096));
    pinned_programs_.push_back(count_program());
    net::TraversalPacket packet;
    packet.id = RequestId{0, 1};
    packet.cur_ptr = away;
    packet.allow_switch_continuation = false;  // bounce to the client
    attach_program(packet, pinned_programs_.back());
    packet.scratch.assign(16, 0);
    for (int copy = 0; copy < 2; copy++) {
        network->send_traversal(net::EndpointAddr::client(0),
                                network->packets().acquire(packet));
        queue.run();
    }
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(responses[1].status, TraversalStatus::kNotLocal);
    EXPECT_EQ(responses[1].iterations_done, 0u);
    EXPECT_EQ(accelerator.stats().replays_sent.value(), 0u);
    EXPECT_EQ(registry.count(check::InvariantKind::kDuplicateExecution),
              0u);
}

TEST_F(AccelFixture, PrefetchesEachLoadOnce)
{
    Accelerator& accelerator = make_accel();
    // A 3-node walk: one prefetch on arrival, one per continuation.
    submit(count_program(), build_chain(3));
    queue.run();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(accelerator.stats().loads.value(), 3u);
    EXPECT_EQ(accelerator.prefetches(), 3u);

    // A next pointer outside the TCAM: the arrival prefetch only.
    const VirtAddr head = build_chain(3);
    memory.write_as<std::uint64_t>(head + 8, 0xDEAD000ull);
    submit(count_program(), head, 2);
    queue.run();
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(accelerator.prefetches(), 4u);

    // An arriving pointer the switch routes here but the TCAM no
    // longer maps, and a null cur_ptr (routed here by an extra rule):
    // no prefetch.
    const VirtAddr away = memory.address_map().region(0).base + kMiB;
    ASSERT_TRUE(accelerator.tcam().punch(away, 4096));
    network->switch_table().add_rule({kNullAddr, 4096, 0});
    std::uint64_t seq = 3;
    for (const VirtAddr start : {away, kNullAddr}) {
        pinned_programs_.push_back(count_program());
        net::TraversalPacket packet;
        packet.id = RequestId{0, seq++};
        packet.cur_ptr = start;
        packet.allow_switch_continuation = false;
        attach_program(packet, pinned_programs_.back());
        packet.scratch.assign(16, 0);
        network->send_traversal(net::EndpointAddr::client(0),
                                network->packets().acquire(packet));
        queue.run();
    }
    ASSERT_EQ(responses.size(), 4u);
    EXPECT_EQ(accelerator.stats().requests_received.value(), 4u);
    EXPECT_EQ(accelerator.prefetches(), 4u);
}

TEST_F(AccelFixture, QueueOverflowDropsAndCounts)
{
    AccelConfig config;
    config.num_cores = 1;
    config.eta_pipelines = 1;
    config.workspaces_per_logic = 1;
    config.max_pending = 2;
    Accelerator& accelerator = make_accel(config);
    const VirtAddr head = build_chain(64);
    for (std::uint64_t i = 0; i < 8; i++) {
        submit(count_program(), head, i + 1);
    }
    queue.run();
    // 1 executing + 2 queued admitted at a time; the rest dropped.
    EXPECT_GT(accelerator.stats().queue_drops.value(), 0u);
    EXPECT_GE(responses.size(), 3u);
}

TEST_F(AccelFixture, ComponentTimesAccumulate)
{
    Accelerator& accelerator = make_accel();
    const VirtAddr head = build_chain(20);
    submit(count_program(), head);
    queue.run();
    const AccelStats& stats = accelerator.stats();
    // rx + tx network stack.
    EXPECT_DOUBLE_EQ(stats.net_stack_time.sum(),
                     2.0 * static_cast<double>(nanos(430.0)));
    EXPECT_DOUBLE_EQ(stats.scheduler_time.sum(),
                     static_cast<double>(nanos(4.0)));
    // 20 loads x >= 120 ns each.
    EXPECT_GE(stats.mem_pipeline_time.sum(),
              20.0 * static_cast<double>(nanos(120.0)));
    EXPECT_GT(stats.logic_pipeline_time.sum(), 0.0);
    EXPECT_GT(stats.logic_busy_time.sum(), 0.0);
    EXPECT_LE(stats.logic_busy_time.sum(),
              stats.logic_pipeline_time.sum());
    accelerator.reset_stats();
    EXPECT_EQ(accelerator.stats().loads.value(), 0u);
}

TEST_F(AccelFixture, StoresWriteThroughChannels)
{
    Accelerator& accelerator = make_accel();
    const VirtAddr head = build_chain(1);
    // Program: load, overwrite the node's value field with 0xAB, done.
    isa::ProgramBuilder b;
    b.load(16)
        .move(isa::dat(0), isa::imm(0xAB))
        .store(0, 0, 8)
        .ret();
    submit(std::make_shared<const isa::Program>(b.build()), head);
    queue.run();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].status, TraversalStatus::kDone);
    EXPECT_EQ(memory.read_as<std::uint64_t>(head), 0xABu);
    EXPECT_EQ(accelerator.stats().stores.value(), 1u);
}

}  // namespace
}  // namespace pulse::accel
