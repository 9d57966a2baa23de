/**
 * @file
 * Live slab migration tests: the engine's copy/cutover protocol (data
 * integrity, map/switch/TCAM coherence, backing reuse, migrate-home
 * overlay retirement, rejection of ineligible starts including a tail
 * slab whose frame holds another slab's backing, abort on a dead
 * link or on a cutover flip a filled destination TCAM refuses), and
 * the full elastic plane rebalancing live CAS traffic —
 * with and without the fault plane mangling every message class —
 * while in-flight operations keep exactly-once semantics.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>

#include "core/cluster.h"
#include "isa/program.h"
#include "placement/migration.h"

namespace pulse::placement {
namespace {

constexpr Bytes kSlab = 64 * kKiB;

placement::PlacementConfig
engine_config()
{
    PlacementConfig config;
    config.mode = PlacementMode::kElastic;
    config.slab_bytes = kSlab;
    return config;
}

MigrationEngine
make_engine(core::Cluster& cluster, const PlacementConfig& config)
{
    std::vector<mem::RangeTcam*> tcams;
    std::vector<mem::ChannelSet*> channels;
    for (NodeId node = 0; node < cluster.memory().num_nodes();
         node++) {
        tcams.push_back(&cluster.accelerator(node).tcam());
        channels.push_back(&cluster.channels(node));
    }
    return MigrationEngine(cluster.queue(), cluster.network(),
                           cluster.memory(), cluster.allocator(),
                           std::move(tcams), std::move(channels),
                           config);
}

std::vector<std::uint8_t>
pattern(Bytes length)
{
    std::vector<std::uint8_t> bytes(length);
    for (Bytes i = 0; i < length; i++) {
        bytes[i] = static_cast<std::uint8_t>(i * 131 + 7);
    }
    return bytes;
}

TEST(MigrationEngine, MigratesSlabAndBackCoherently)
{
    core::ClusterConfig config;
    config.num_mem_nodes = 2;
    config.check.invariants = true;
    core::Cluster cluster(config);
    MigrationEngine engine = make_engine(cluster, engine_config());

    const VirtAddr va = cluster.allocator().alloc_on(0, kSlab, kSlab);
    ASSERT_NE(va, kNullAddr);
    const std::vector<std::uint8_t> data = pattern(kSlab);
    cluster.memory().write(va, data.data(), data.size());

    // Outbound: node 0 -> node 1.
    bool done = false;
    bool success = false;
    ASSERT_TRUE(engine.start(va, kSlab, 1, [&](bool migrated) {
        done = true;
        success = migrated;
    }));
    EXPECT_FALSE(engine.start(va, kSlab, 1, [](bool) {}));  // busy
    cluster.queue().run();
    ASSERT_TRUE(done);
    ASSERT_TRUE(success);

    // Authority, routing and translation all moved together.
    const mem::AddressMap& map = cluster.memory().address_map();
    EXPECT_EQ(*map.node_for(va), 1u);
    EXPECT_EQ(*cluster.network().switch_table().lookup(va), 1u);
    EXPECT_EQ(cluster.accelerator(0)
                  .tcam()
                  .translate(va, mem::Perm::kRead)
                  .status,
              mem::TranslateStatus::kMiss);
    EXPECT_EQ(cluster.accelerator(1)
                  .tcam()
                  .translate(va, mem::Perm::kRead)
                  .status,
              mem::TranslateStatus::kOk);
    EXPECT_EQ(map.remaps().size(), 1u);

    // Bytes are intact — and physically live on node 1 now.
    std::vector<std::uint8_t> readback(kSlab);
    cluster.memory().read(va, readback.data(), readback.size());
    EXPECT_EQ(readback, data);
    EXPECT_EQ(cluster.memory().node(1).read_as<std::uint8_t>(0),
              data[0]);

    // The vacated source backing is reusable, not leaked.
    EXPECT_EQ(cluster.allocator().free_list_bytes(0), kSlab);

    // A traversal started at the migrated pointer routes end to end.
    isa::ProgramBuilder b;
    b.load(8).move(isa::sp(0, 8), isa::dat(0, 8)).ret();
    b.scratch_bytes(8);
    auto program = std::make_shared<const isa::Program>(b.build());
    std::uint64_t loaded = 0;
    offload::Operation op;
    op.program = program;
    op.start_ptr = va;
    op.init_scratch.assign(8, 0);
    op.done = [&](offload::Completion&& completion) {
        EXPECT_EQ(completion.status, isa::TraversalStatus::kDone);
        std::memcpy(&loaded, completion.scratch.data(), 8);
    };
    cluster.submitter(core::SystemKind::kPulse)(std::move(op));
    cluster.queue().run();
    std::uint64_t expected = 0;
    std::memcpy(&expected, data.data(), 8);
    EXPECT_EQ(loaded, expected);

    // Homebound: the hole at the old home is the first fit, so the
    // remap overlay retires instead of stacking a second redirect.
    done = false;
    ASSERT_TRUE(engine.start(va, kSlab, 0, [&](bool migrated) {
        done = true;
        success = migrated;
    }));
    cluster.queue().run();
    ASSERT_TRUE(done);
    ASSERT_TRUE(success);
    EXPECT_EQ(*map.node_for(va), 0u);
    EXPECT_TRUE(map.remaps().empty());
    EXPECT_EQ(cluster.accelerator(0).tcam().size(), 1u);  // coalesced
    EXPECT_EQ(cluster.allocator().free_list_bytes(0), 0u);
    EXPECT_EQ(cluster.allocator().free_list_bytes(1), kSlab);
    cluster.memory().read(va, readback.data(), readback.size());
    EXPECT_EQ(readback, data);

    EXPECT_EQ(engine.stats().completed.value(), 2u);
    EXPECT_EQ(engine.stats().aborted.value(), 0u);
    EXPECT_EQ(cluster.verify_quiesce(), 0u);
}

TEST(MigrationEngine, RejectsIneligibleStarts)
{
    core::ClusterConfig config;
    config.num_mem_nodes = 2;
    core::Cluster cluster(config);
    MigrationEngine engine = make_engine(cluster, engine_config());
    const mem::AddressMap& map = cluster.memory().address_map();

    const VirtAddr backed = cluster.allocator().alloc_on(0, kSlab, kSlab);
    ASSERT_NE(backed, kNullAddr);
    // Slab-aligned but only partially backed.
    const VirtAddr partial =
        cluster.allocator().alloc_on(0, 4 * kKiB, kSlab);
    ASSERT_NE(partial, kNullAddr);
    const VirtAddr unmapped =
        map.region(1).base + map.region_size();

    auto never = [](bool) { FAIL() << "rejected start ran on_done"; };
    EXPECT_FALSE(engine.start(backed, kSlab, 0, never));   // dst == src
    EXPECT_FALSE(engine.start(backed, kSlab, 7, never));   // bad node
    EXPECT_FALSE(engine.start(backed, 0, 1, never));       // empty span
    EXPECT_FALSE(engine.start(partial, kSlab, 1, never));  // unbacked
    EXPECT_FALSE(engine.start(unmapped, kSlab, 0, never));
    EXPECT_TRUE(cluster.queue().empty());  // nothing was scheduled
    EXPECT_EQ(engine.stats().started.value(), 0u);

    // A migration into node 0 reserves backing at node 0's bump
    // frontier, inside the home frame of its partly filled tail slab.
    // That tail slab must stay ineligible: moving it away would free
    // the whole frame, live bytes of the guest slab included.
    const VirtAddr guest = cluster.allocator().alloc_on(1, kSlab, kSlab);
    const VirtAddr second = cluster.allocator().alloc_on(1, kSlab, kSlab);
    ASSERT_NE(guest, kNullAddr);
    ASSERT_NE(second, kNullAddr);
    const std::vector<std::uint8_t> data = pattern(kSlab);
    cluster.memory().write(guest, data.data(), data.size());
    auto migrate = [&](VirtAddr va, NodeId dst) {
        bool migrated = false;
        if (!engine.start(va, kSlab, dst,
                          [&](bool ok) { migrated = ok; })) {
            return false;
        }
        cluster.queue().run();
        return migrated;
    };
    ASSERT_TRUE(migrate(guest, 0));
    EXPECT_LT(map.placement_for(guest).phys,
              map.offset_in_region(partial) + kSlab);
    EXPECT_FALSE(migrate(partial, 1));  // tail slab: frame is shared
    ASSERT_TRUE(migrate(second, 0));
    std::vector<std::uint8_t> readback(kSlab);
    cluster.memory().read(guest, readback.data(), readback.size());
    EXPECT_EQ(readback, data);
}

TEST(MigrationEngine, AbortsOnDeadLinkAndFreesBacking)
{
    core::ClusterConfig config;
    config.num_mem_nodes = 2;
    config.faults.links.loss = 1.0;  // every copy chunk and ack dies
    core::Cluster cluster(config);
    PlacementConfig pconfig = engine_config();
    pconfig.copy_rto = micros(2.0);
    pconfig.copy_max_retries = 3;
    MigrationEngine engine = make_engine(cluster, pconfig);

    const VirtAddr va = cluster.allocator().alloc_on(0, kSlab, kSlab);
    ASSERT_NE(va, kNullAddr);
    bool done = false;
    bool success = true;
    ASSERT_TRUE(engine.start(va, kSlab, 1, [&](bool migrated) {
        done = true;
        success = migrated;
    }));
    cluster.queue().run();
    ASSERT_TRUE(done);
    EXPECT_FALSE(success);
    EXPECT_FALSE(engine.active());
    EXPECT_EQ(engine.stats().aborted.value(), 1u);
    EXPECT_EQ(engine.stats().completed.value(), 0u);
    EXPECT_GT(engine.stats().chunks_retransmitted.value(), 0u);

    // Nothing changed: same owner, same translation, and the reserved
    // destination backing went back to the free list.
    EXPECT_EQ(*cluster.memory().address_map().node_for(va), 0u);
    EXPECT_TRUE(cluster.memory().address_map().remaps().empty());
    EXPECT_EQ(cluster.accelerator(0)
                  .tcam()
                  .translate(va, mem::Perm::kRead)
                  .status,
              mem::TranslateStatus::kOk);
    EXPECT_EQ(cluster.allocator().free_list_bytes(1), kSlab);
    EXPECT_EQ(cluster.allocator().free_list_bytes(0), 0u);
}

TEST(MigrationEngine, AbortsWhenTheDestinationTcamFillsDuringCopy)
{
    core::ClusterConfig config;
    config.num_mem_nodes = 2;
    core::Cluster cluster(config);
    MigrationEngine engine = make_engine(cluster, engine_config());

    const VirtAddr va = cluster.allocator().alloc_on(0, kSlab, kSlab);
    ASSERT_NE(va, kNullAddr);
    const std::vector<std::uint8_t> data = pattern(kSlab);
    cluster.memory().write(va, data.data(), data.size());
    bool done = false;
    bool success = true;
    ASSERT_TRUE(engine.start(va, kSlab, 1, [&](bool migrated) {
        done = true;
        success = migrated;
    }));

    // While the copy runs, other spans (past the mapped regions) take
    // every free entry of the destination TCAM, so PLAN's pre-check no
    // longer holds at cutover.
    const mem::AddressMap& map = cluster.memory().address_map();
    mem::RangeTcam& tcam = cluster.accelerator(1).tcam();
    const VirtAddr far = map.region(1).base + map.region_size();
    for (VirtAddr at = far; tcam.size() < tcam.capacity();
         at += 2 * 4096) {
        ASSERT_TRUE(tcam.insert(
            mem::RangeEntry{at, 4096, at - far, mem::Perm::kRead}));
    }
    cluster.queue().run();

    // The refused flip aborted the migration instead of the process.
    ASSERT_TRUE(done);
    EXPECT_FALSE(success);
    EXPECT_FALSE(engine.active());
    EXPECT_EQ(engine.stats().aborted.value(), 1u);
    EXPECT_EQ(engine.stats().completed.value(), 0u);
    // The destination backing went back to the allocator.
    EXPECT_EQ(cluster.allocator().free_list_bytes(1), kSlab);
    EXPECT_EQ(cluster.allocator().free_list_bytes(0), 0u);
    // The source still serves the slab: owner, switch route, TCAM
    // translation and bytes are all as before.
    EXPECT_EQ(*map.node_for(va), 0u);
    EXPECT_TRUE(map.remaps().empty());
    EXPECT_EQ(*cluster.network().switch_table().lookup(va), 0u);
    EXPECT_EQ(cluster.accelerator(0)
                  .tcam()
                  .translate(va, mem::Perm::kRead)
                  .status,
              mem::TranslateStatus::kOk);
    EXPECT_EQ(tcam.translate(va, mem::Perm::kRead).status,
              mem::TranslateStatus::kMiss);
    std::vector<std::uint8_t> readback(kSlab);
    cluster.memory().read(va, readback.data(), readback.size());
    EXPECT_EQ(readback, data);
}

isa::Program
cas_increment_program()
{
    isa::ProgramBuilder b;
    b.load(8)
        .add(isa::sp(8), isa::dat(0), isa::imm(1))
        .cas(0, isa::dat(0), isa::sp(8))
        .jump_eq("done")
        .next_iter()
        .label("done")
        .ret();
    return b.build();
}

/**
 * Drive a closed loop of CAS increments against two slab-aligned
 * counters on node 0 while the elastic plane is live. Returns after
 * the queue drains; every assertion about exactly-once effects and
 * structural invariants runs inside.
 */
void
run_elastic_cas_soak(core::ClusterConfig config, int total,
                     std::uint64_t min_migrations)
{
    config.num_mem_nodes = 2;
    config.check.invariants = true;
    config.placement.mode = PlacementMode::kElastic;
    config.placement.slab_bytes = kSlab;
    config.placement.epoch = micros(5.0);
    config.placement.trigger_imbalance = 1.1;
    config.placement.copy_rto = micros(10.0);
    config.placement.copy_max_retries = 64;
    core::Cluster cluster(config);

    // Two hot slabs on node 0 (a single slab is never migrated: moving
    // all of a node's load somewhere else improves nothing).
    const VirtAddr va0 = cluster.allocator().alloc_on(0, kSlab, kSlab);
    const VirtAddr va1 = cluster.allocator().alloc_on(0, kSlab, kSlab);
    ASSERT_NE(va0, kNullAddr);
    ASSERT_NE(va1, kNullAddr);
    cluster.memory().write_as<std::uint64_t>(va0, 0);
    cluster.memory().write_as<std::uint64_t>(va1, 0);

    auto program =
        std::make_shared<const isa::Program>(cas_increment_program());
    auto submit = cluster.submitter(core::SystemKind::kPulse);
    int submitted = 0;
    int done = 0;
    int ok = 0;
    std::function<void()> submit_next = [&] {
        if (submitted >= total) {
            return;
        }
        const VirtAddr target = (submitted++ % 2 == 0) ? va0 : va1;
        offload::Operation op;
        op.program = program;
        op.start_ptr = target;
        op.init_scratch.assign(16, 0);
        op.done = [&](offload::Completion&& completion) {
            done++;
            if (completion.status == isa::TraversalStatus::kDone) {
                ok++;
            }
            submit_next();
        };
        submit(std::move(op));
    };
    for (int i = 0; i < 16; i++) {
        submit_next();
    }
    cluster.queue().run();

    EXPECT_EQ(done, total);
    EXPECT_GE(ok, total - total / 20);  // chaos may fail a straggler
    // Exactly-once: each successful op incremented exactly one
    // counter exactly once, across every migration of its slab.
    const std::uint64_t sum =
        cluster.memory().read_as<std::uint64_t>(va0) +
        cluster.memory().read_as<std::uint64_t>(va1);
    EXPECT_EQ(sum, static_cast<std::uint64_t>(ok));

    ASSERT_NE(cluster.placement_plane(), nullptr);
    EXPECT_GE(cluster.placement_plane()->migration_stats()
                  .completed.value(),
              min_migrations);
    EXPECT_EQ(cluster.verify_quiesce(), 0u);
}

TEST(PlacementPlane, RebalancesLiveCasTraffic)
{
    run_elastic_cas_soak(core::ClusterConfig(), 600,
                         /*min_migrations=*/1);
}

TEST(PlacementPlane, RebalancesUnderChaos)
{
    core::ClusterConfig config;
    config.faults.links.loss = 0.02;
    config.faults.links.duplicate = 0.01;
    config.faults.links.reorder = 0.02;
    config.faults.links.reorder_jitter = micros(3.0);
    config.offload.adaptive_rto = true;
    config.offload.retransmit_timeout = micros(2000.0);
    run_elastic_cas_soak(config, 600, /*min_migrations=*/1);
}

}  // namespace
}  // namespace pulse::placement
