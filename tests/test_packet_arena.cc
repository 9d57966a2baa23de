/**
 * @file
 * Tests for net::PacketArena and the packets-by-handle ownership rule.
 *
 * Unit half: slots are reused through the free list, slot addresses
 * survive chunk growth, and a stale handle or a double release panics.
 *
 * Leak sweep: every in-flight traversal packet lives in the network's
 * arena, and each component that drops a packet must release its slot.
 * Each scenario below drives one family of drop paths (fault-plane
 * loss, duplication, corruption, blackout and stall; QoS throttle and
 * shed; replication failover; elastic migration; fork/join fan-out;
 * admission overflow), runs the cluster to quiesce, and requires
 * packets().live() == 0 along with evidence the paths actually ran.
 */
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "core/cluster.h"
#include "ds/bptree.h"
#include "ds/ds_common.h"
#include "ds/hash_table.h"
#include "ds/linked_list.h"
#include "isa/program.h"
#include "net/packet_arena.h"

namespace pulse::net {
namespace {

// ------------------------------------------------------------ arena

TEST(PacketArena, ReleasedSlotIsReusedWithAFreshGeneration)
{
    PacketArena arena;
    const PacketHandle first = arena.acquire();
    arena[first].cur_ptr = 0x1000;
    const TraversalPacket* address = &arena[first];
    EXPECT_EQ(arena.live(), 1u);
    arena.release(first);
    EXPECT_EQ(arena.live(), 0u);

    const PacketHandle second = arena.acquire();
    EXPECT_EQ(&arena[second], address);  // same slot, via the free list
    EXPECT_NE(second, first);            // but a new generation
    EXPECT_EQ(arena.peak(), 1u);
    arena.release(second);
}

TEST(PacketArena, AddressesStayStableAcrossChunkGrowth)
{
    PacketArena arena;
    std::vector<PacketHandle> handles;
    std::vector<const TraversalPacket*> addresses;
    const std::size_t n = 5 * PacketArena::kChunkSlots + 3;
    for (std::size_t i = 0; i < n; i++) {
        TraversalPacket packet;
        packet.id = RequestId{0, i + 1};
        handles.push_back(arena.acquire(packet));
        addresses.push_back(&arena[handles.back()]);
    }
    EXPECT_EQ(arena.live(), n);
    EXPECT_EQ(arena.peak(), n);
    for (std::size_t i = 0; i < n; i++) {
        EXPECT_EQ(&arena[handles[i]], addresses[i]);
        EXPECT_EQ(arena[handles[i]].id.seq, i + 1);
    }
    for (const PacketHandle handle : handles) {
        arena.release(handle);
    }
    EXPECT_EQ(arena.live(), 0u);
}

TEST(PacketArena, CopyAcquireMayReadASlotOfTheSameArena)
{
    PacketArena arena;
    std::vector<PacketHandle> handles;
    // Fill the first chunk exactly, so the copy below grows the arena
    // while its source reference is held.
    for (std::uint32_t i = 0; i < PacketArena::kChunkSlots; i++) {
        handles.push_back(arena.acquire());
        arena[handles.back()].iterations_done = i;
    }
    const PacketHandle copy = arena.acquire(arena[handles.back()]);
    EXPECT_EQ(arena[copy].iterations_done,
              PacketArena::kChunkSlots - 1);
    arena.release(copy);
    for (const PacketHandle handle : handles) {
        arena.release(handle);
    }
}

TEST(PacketArenaDeath, StaleHandlePanics)
{
    PacketArena arena;
    const PacketHandle handle = arena.acquire();
    arena.release(handle);
    const PacketHandle reused = arena.acquire();
    EXPECT_DEATH((void)arena[handle].cur_ptr, "stale or invalid");
    arena.release(reused);
}

TEST(PacketArenaDeath, DoubleReleasePanics)
{
    PacketArena arena;
    const PacketHandle handle = arena.acquire();
    arena.release(handle);
    EXPECT_DEATH(arena.release(handle), "stale or invalid");
}

TEST(PacketArenaDeath, DefaultHandleIsInvalid)
{
    PacketArena arena;
    EXPECT_DEATH((void)arena[PacketHandle{}].cur_ptr, "stale or invalid");
}

// ------------------------------------------------------- leak sweep

using core::Cluster;
using core::ClusterConfig;
using core::SystemKind;
using isa::TraversalStatus;

/** Lock-free fetch-and-add on an 8-byte counter. */
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

offload::Operation
increment_op(const std::shared_ptr<const isa::Program>& program,
             VirtAddr counter)
{
    offload::Operation op;
    op.program = program;
    op.start_ptr = counter;
    op.init_scratch.assign(16, 0);
    return op;
}

/** The sweep's verdict: nothing left in the arena once drained. */
void
expect_drained(Cluster& cluster)
{
    EXPECT_TRUE(cluster.queue().empty());
    EXPECT_GT(cluster.packets().peak(), 0u);
    EXPECT_EQ(cluster.packets().live(), 0u);
    EXPECT_TRUE(cluster.network().traversal_flow().balanced());
}

TEST(PacketArenaLeakSweep, FaultPlaneDropPaths)
{
    ClusterConfig config;
    config.accel.workspaces_per_logic = 8;
    config.offload.adaptive_rto = true;
    config.offload.retransmit_timeout = micros(200.0);
    config.faults.links.loss = 0.02;
    config.faults.links.duplicate = 0.05;
    config.faults.links.corrupt = 0.02;
    config.faults.links.reorder = 0.05;
    config.faults.links.reorder_jitter = micros(2.0);
    config.faults.timeline.push_back({.node = 0,
                                      .kind = faults::NodeFaultKind::kBlackout,
                                      .start = micros(200.0),
                                      .end = micros(300.0)});
    config.faults.timeline.push_back({.node = 0,
                                      .kind = faults::NodeFaultKind::kStall,
                                      .start = micros(500.0),
                                      .end = micros(560.0)});
    Cluster cluster(config);

    const VirtAddr counter = cluster.allocator().alloc_on(0, 8, 256);
    cluster.memory().write_as<std::uint64_t>(counter, 0);
    const auto program = increment_program();
    auto submit = cluster.submitter(SystemKind::kPulse);
    const int n = 400;
    int done = 0;
    for (int i = 0; i < n; i++) {
        cluster.queue().schedule_at(micros(2.0 * i), [&, i] {
            offload::Operation op = increment_op(program, counter);
            op.done = [&](offload::Completion&&) { done++; };
            submit(std::move(op));
        });
    }
    cluster.queue().run();

    EXPECT_EQ(done, n);
    const TraversalFlow& flow = cluster.network().traversal_flow();
    EXPECT_GT(flow.duplicated, 0u);
    EXPECT_GT(flow.plan_dropped, 0u);
    EXPECT_GT(flow.checksum_dropped, 0u);
    EXPECT_GT(flow.delivery_blackout, 0u);
    EXPECT_GT(flow.source_dark, 0u);
    EXPECT_GT(cluster.fault_plane()->stats().stall_holds.value(), 0u);
    const accel::AccelStats& accel = cluster.accelerator(0).stats();
    EXPECT_GT(accel.duplicates_suppressed.value() +
                  accel.replays_sent.value(),
              0u);
    expect_drained(cluster);
}

TEST(PacketArenaLeakSweep, QosThrottleAndShed)
{
    ClusterConfig config;
    config.num_mem_nodes = 1;
    config.serve.on = true;
    config.serve.throttle_park_cap = 2;
    config.serve.tenants.push_back({.id = 0,
                                    .slo = serve::SloClass::kBatch,
                                    .quota_ops_per_s = 1e4,
                                    .quota_burst = 1.0});
    Cluster cluster(config);

    ds::HashTable table(cluster.memory(), cluster.allocator(),
                        ds::HashTableConfig{.num_buckets = 16});
    for (std::uint64_t k = 1; k <= 64; k++) {
        table.insert(k);
    }
    int done = 0;
    int rejected = 0;
    for (int i = 0; i < 12; i++) {
        auto op = table.make_find(1 + i % 64, {});
        op.done = [&](offload::Completion&& completion) {
            done++;
            rejected += completion.rejected ? 1 : 0;
        };
        cluster.submitter(SystemKind::kPulse, 0)(std::move(op));
    }
    cluster.queue().run();

    EXPECT_EQ(done, 12);
    EXPECT_GT(rejected, 0);
    const auto& counters = cluster.serve_plane()->tenant_counters().at(0);
    EXPECT_GT(counters.throttled, 0u);
    EXPECT_GT(counters.shed, 0u);
    EXPECT_EQ(cluster.serve_plane()->parked(), 0u);
    expect_drained(cluster);
}

TEST(PacketArenaLeakSweep, ReplicationFailover)
{
    ClusterConfig config;
    config.num_mem_nodes = 2;
    config.replication.replication_factor = 2;
    config.offload.adaptive_rto = true;
    config.offload.retransmit_timeout = micros(2000.0);
    config.faults.timeline.push_back(
        {.node = 0, .kind = faults::NodeFaultKind::kBlackout,
         .start = micros(800.0), .end = micros(4000.0)});
    Cluster cluster(config);

    const Bytes extent = 128 * kKiB;
    const VirtAddr counter = cluster.allocator().alloc_on(0, extent, 256);
    ASSERT_NE(counter, kNullAddr);
    cluster.memory().write_as<std::uint64_t>(counter, 0);
    const auto program = increment_program();
    auto submit = cluster.submitter(SystemKind::kPulse);
    int done = 0;
    // Increments before, across and after the outage.
    for (int i = 0; i < 40; i++) {
        cluster.queue().schedule_at(micros(50.0 * i), [&] {
            offload::Operation op = increment_op(program, counter);
            op.done = [&](offload::Completion&&) { done++; };
            submit(std::move(op));
        });
    }
    cluster.queue().run();

    EXPECT_EQ(done, 40);
    ASSERT_NE(cluster.replication_plane(), nullptr);
    EXPECT_EQ(cluster.replication_plane()->failovers().size(), 1u);
    expect_drained(cluster);
}

TEST(PacketArenaLeakSweep, ElasticMigration)
{
    constexpr Bytes kSlab = 64 * kKiB;
    ClusterConfig config;
    config.num_mem_nodes = 2;
    config.placement.mode = placement::PlacementMode::kElastic;
    config.placement.slab_bytes = kSlab;
    config.placement.epoch = micros(5.0);
    config.placement.trigger_imbalance = 1.1;
    config.placement.copy_rto = micros(10.0);
    config.placement.copy_max_retries = 64;
    Cluster cluster(config);

    // Two hot slabs on node 0, so moving one of them helps.
    const VirtAddr va0 = cluster.allocator().alloc_on(0, kSlab, kSlab);
    const VirtAddr va1 = cluster.allocator().alloc_on(0, kSlab, kSlab);
    ASSERT_NE(va0, kNullAddr);
    ASSERT_NE(va1, kNullAddr);
    cluster.memory().write_as<std::uint64_t>(va0, 0);
    cluster.memory().write_as<std::uint64_t>(va1, 0);
    const auto program = increment_program();
    auto submit = cluster.submitter(SystemKind::kPulse);
    const int total = 400;
    int submitted = 0;
    int done = 0;
    std::function<void()> submit_next = [&] {
        if (submitted >= total) {
            return;
        }
        const VirtAddr target = (submitted++ % 2 == 0) ? va0 : va1;
        offload::Operation op = increment_op(program, target);
        op.done = [&](offload::Completion&&) {
            done++;
            submit_next();
        };
        submit(std::move(op));
    };
    for (int i = 0; i < 16; i++) {
        submit_next();
    }
    cluster.queue().run();

    EXPECT_EQ(done, total);
    ASSERT_NE(cluster.placement_plane(), nullptr);
    EXPECT_GE(cluster.placement_plane()->migration_stats()
                  .completed.value(),
              1u);
    expect_drained(cluster);
}

TEST(PacketArenaLeakSweep, ForkJoinFanOut)
{
    ClusterConfig config;
    config.num_mem_nodes = 4;
    config.faults.links.loss = 0.01;
    config.faults.links.duplicate = 0.01;
    config.offload.adaptive_rto = true;
    config.offload.retransmit_timeout = micros(2000.0);
    Cluster cluster(config);

    ds::BPTreeConfig bt;
    bt.inline_values = true;
    bt.partitions = config.num_mem_nodes;
    ds::BPTree tree(cluster.memory(), cluster.allocator(), bt);
    std::vector<ds::BPTreeEntry> entries;
    for (std::uint64_t k = 100; k < 100 + 2000 * 7; k += 7) {
        entries.push_back({k, ds::value_pattern_word(k)});
    }
    tree.build(entries);

    int done = 0;
    for (int i = 0; i < 16; i++) {
        const std::uint64_t lo = 100 + 700 * static_cast<std::uint64_t>(i);
        const std::uint64_t hi = lo + 6000;
        const auto want = tree.aggregate_reference(ds::AggKind::kSum, lo, hi);
        offload::Operation op = tree.make_aggregate_forked(lo, hi, {});
        op.done = [&done, want](offload::Completion&& completion) {
            done++;
            ASSERT_EQ(completion.status, TraversalStatus::kDone);
            EXPECT_EQ(ds::BPTree::parse_aggregate_forked(completion).value,
                      want.value);
        };
        cluster.submitter(SystemKind::kPulse)(std::move(op));
    }
    cluster.queue().run();

    EXPECT_EQ(done, 16);
    EXPECT_GT(cluster.offload_engine().forks_spawned(), 0u);
    expect_drained(cluster);
}

TEST(PacketArenaLeakSweep, AdmissionOverflow)
{
    ClusterConfig config;
    config.accel.num_cores = 1;
    config.accel.eta_pipelines = 1;
    config.accel.workspaces_per_logic = 1;
    config.accel.max_pending = 1;
    config.offload.retransmit_timeout = micros(50.0);
    Cluster cluster(config);

    ds::LinkedList list(cluster.memory(), cluster.allocator());
    std::vector<std::uint64_t> values(64);
    for (std::size_t i = 0; i < values.size(); i++) {
        values[i] = i;
    }
    list.build(values, 0);
    int done = 0;
    for (int i = 0; i < 24; i++) {
        auto op = list.make_walk(32, {});
        op.done = [&](offload::Completion&&) { done++; };
        cluster.submitter(SystemKind::kPulse)(std::move(op));
    }
    cluster.queue().run();

    EXPECT_EQ(done, 24);
    EXPECT_GT(cluster.accelerator(0).stats().queue_drops.value(), 0u);
    EXPECT_GT(cluster.offload_engine().stats().retransmits.value(), 0u);
    expect_drained(cluster);
}

}  // namespace
}  // namespace pulse::net
