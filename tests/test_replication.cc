/**
 * @file
 * Fault-tolerance plane tests: heartbeat detector semantics (stall vs
 * blackout), off-gating, replica establishment + failover serving
 * reads from the survivor, a replica
 * copy aborted by a short blackout and re-established after it, a
 * re-executed zero-progress bounce mirrored into every window, and the
 * chaos CAS soak — a node blackout injected at every phase of the
 * replication protocol (before the first scan, mid-copy, after
 * establishment, deep into mirrored CAS traffic) while a closed loop
 * of CAS increments runs with driver retry on. Every operation must
 * eventually complete exactly once: the counter sum equals the op
 * count no matter when the responder died.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <optional>

#include "core/cluster.h"
#include "isa/program.h"
#include "replication/replication_plane.h"
#include "serve/fleet.h"

namespace pulse::replication {
namespace {

// ---------------------------------------------------------------------
// Gating
// ---------------------------------------------------------------------

TEST(ReplicationPlane, OffModeBuildsNoPlane)
{
    core::ClusterConfig config;
    config.num_mem_nodes = 2;
    core::Cluster off(config);
    EXPECT_EQ(off.replication_plane(), nullptr);

    config.replication.replication_factor = 2;
    core::Cluster on(config);
    ASSERT_NE(on.replication_plane(), nullptr);
    EXPECT_EQ(on.replication_plane()->config().replication_factor, 2u);
}

// ---------------------------------------------------------------------
// Heartbeat detector
// ---------------------------------------------------------------------

constexpr Time kProbe = micros(20.0);

TEST(HeartbeatDetector, BlackoutDeclaredStallIsNot)
{
    net::HeartbeatDetector detector(2, kProbe, /*threshold=*/8.0,
                                    /*min_missed=*/4);

    // Healthy warmup: acks every interval keep suspicion near 1.
    Time now = 0;
    for (int round = 0; round < 5; round++) {
        now += kProbe;
        detector.on_probe_sent(0, now);
        detector.on_probe_sent(1, now);
        detector.on_ack(0, now + micros(1.0));
        detector.on_ack(1, now + micros(1.0));
    }
    EXPECT_LT(detector.suspicion(0, now + micros(2.0)), 2.0);
    EXPECT_FALSE(detector.should_declare(0, now + micros(2.0)));
    EXPECT_FALSE(detector.unresolved());

    // Stall: three probes go silent, then the NIC flushes the held
    // acks. Suspicion spikes but the missed-probe floor (4) is never
    // reached, so the node is not declared.
    const Time stall_base = now;
    for (int round = 1; round <= 3; round++) {
        detector.on_probe_sent(0, stall_base + round * kProbe);
        EXPECT_FALSE(detector.should_declare(
            0, stall_base + round * kProbe));
    }
    EXPECT_TRUE(detector.unresolved());
    detector.on_ack(0, stall_base + 3 * kProbe + micros(5.0));
    EXPECT_FALSE(detector.should_declare(
        0, stall_base + 4 * kProbe));
    EXPECT_FALSE(detector.is_dead(0));

    // Blackout: probes and acks both vanish. After the missed floor
    // (4 consecutive unanswered probes — the first silent round only
    // opens the outstanding window) AND the suspicion threshold
    // (8 smoothed intervals of silence) the node is declared.
    now = stall_base + 3 * kProbe + micros(5.0);
    for (int round = 1; round <= 5; round++) {
        detector.on_probe_sent(0, now + round * kProbe);
    }
    // The missed floor is reached, but only ~5 intervals of silence
    // have accrued: not declared yet.
    EXPECT_FALSE(detector.should_declare(0, now + 5 * kProbe));
    // ...and once the silence passes 8 smoothed intervals (the stall
    // ack stretched the EWMA above the 20us floor), it is.
    EXPECT_TRUE(detector.should_declare(0, now + 14 * kProbe));

    detector.declare_dead(0);
    EXPECT_TRUE(detector.is_dead(0));
    EXPECT_EQ(detector.suspicion(0, now + 20 * kProbe), 0.0);
    // The dead node's outstanding probe no longer holds the loop open.
    EXPECT_FALSE(detector.unresolved());

    detector.mark_recovered(0, now + 20 * kProbe);
    EXPECT_FALSE(detector.is_dead(0));
    EXPECT_FALSE(detector.should_declare(0, now + 21 * kProbe));
}

// ---------------------------------------------------------------------
// Establishment + failover
// ---------------------------------------------------------------------

constexpr Bytes kPad = 128 * kKiB;

std::vector<std::uint8_t>
pattern(Bytes length)
{
    std::vector<std::uint8_t> bytes(length);
    for (Bytes i = 0; i < length; i++) {
        bytes[i] = static_cast<std::uint8_t>(i * 131 + 7);
    }
    return bytes;
}

isa::Program
load_program()
{
    isa::ProgramBuilder b;
    b.load(8).move(isa::sp(0, 8), isa::dat(0, 8)).ret();
    b.scratch_bytes(8);
    return b.build();
}

TEST(ReplicationPlane, FailoverServesReadsFromSurvivor)
{
    core::ClusterConfig config;
    config.num_mem_nodes = 2;
    config.check.invariants = true;
    config.replication.replication_factor = 2;
    config.offload.adaptive_rto = true;
    config.offload.retransmit_timeout = micros(2000.0);
    // Node 0 goes dark at 800us — well after establishment — and
    // stays dark past the mid-blackout read below.
    config.faults.timeline.push_back(faults::NodeFaultWindow{
        /*node=*/0, faults::NodeFaultKind::kBlackout, micros(800.0),
        micros(4000.0)});
    core::Cluster cluster(config);
    ASSERT_NE(cluster.replication_plane(), nullptr);
    const ReplicationPlane& plane = *cluster.replication_plane();

    const VirtAddr va = cluster.allocator().alloc_on(0, kPad, 256);
    ASSERT_NE(va, kNullAddr);
    const std::vector<std::uint8_t> data = pattern(kPad);
    cluster.memory().write(va, data.data(), data.size());

    // A read submitted mid-blackout (after detection has had time to
    // fire) must be answered by the surviving replica.
    auto program =
        std::make_shared<const isa::Program>(load_program());
    std::uint64_t loaded = 0;
    bool completed = false;
    cluster.queue().schedule_after(micros(1400.0), [&] {
        offload::Operation op;
        op.program = program;
        op.start_ptr = va + 4096;
        op.init_scratch.assign(8, 0);
        op.done = [&](offload::Completion&& completion) {
            completed = true;
            EXPECT_EQ(completion.status, isa::TraversalStatus::kDone);
            EXPECT_FALSE(completion.timed_out);
            std::memcpy(&loaded, completion.scratch.data(), 8);
        };
        cluster.submitter(core::SystemKind::kPulse)(std::move(op));
    });
    cluster.queue().run();

    // Replica established before the outage, death declared, and the
    // dead node's span re-routed without losing anything.
    EXPECT_GE(plane.stats().replicas_established.value(), 1u);
    EXPECT_EQ(plane.stats().nodes_declared_dead.value(), 1u);
    ASSERT_EQ(plane.failovers().size(), 1u);
    EXPECT_EQ(plane.failovers().front().node, 0u);
    EXPECT_GE(plane.failovers().front().spans, 1u);
    EXPECT_GT(plane.failovers().front().declared_at, micros(800.0));
    EXPECT_EQ(plane.stats().failover_spans_lost.value(), 0u);
    EXPECT_GE(plane.stats().failover_spans_rerouted.value(), 1u);

    // Routing moved to the survivor atomically.
    EXPECT_EQ(*cluster.memory().address_map().node_for(va), 1u);
    EXPECT_EQ(*cluster.network().switch_table().lookup(va), 1u);

    // The mid-blackout read saw the replica's (correct) bytes...
    ASSERT_TRUE(completed);
    std::uint64_t expected = 0;
    std::memcpy(&expected, data.data() + 4096, 8);
    EXPECT_EQ(loaded, expected);

    // ...and the whole extent survives byte-for-byte.
    std::vector<std::uint8_t> readback(kPad);
    cluster.memory().read(va, readback.data(), readback.size());
    EXPECT_EQ(readback, data);

    EXPECT_EQ(cluster.verify_quiesce(), 0u);
}

TEST(ReplicationPlane, ReexecutedBounceIsMirroredToEveryWindow)
{
    // A zero-progress kNotLocal bounce at node A is mirrored as a
    // cached response into every other window, the owner B's included.
    // B must re-execute the visit rather than replay the bounce, and
    // that re-execution must be mirrored like a new visit: otherwise
    // no other window holds B's real response, and after B dies a
    // retransmit answered by a replica re-executes the visit.
    constexpr NodeId kA = 0;
    constexpr NodeId kB = 1;
    constexpr NodeId kC = 2;
    core::ClusterConfig config;
    config.num_mem_nodes = 3;
    config.replication.replication_factor = 2;
    core::Cluster cluster(config);
    ASSERT_NE(cluster.replication_plane(), nullptr);

    const VirtAddr va = cluster.allocator().alloc_on(kB, 4096, 256);
    ASSERT_NE(va, kNullAddr);
    cluster.memory().write_as<std::uint64_t>(va, 42);
    auto program =
        std::make_shared<const isa::Program>(load_program());

    net::TraversalPacket packet;
    packet.id = {0, 777};
    packet.cur_ptr = va;
    net::attach_program(packet, program);
    packet.scratch.assign(8, 0);
    // The switch decides the route at send time: a stale overlay rule
    // sends this one packet for B's address to A, which bounces it to
    // the switch, which then routes the same visit to B.
    net::Network& network = cluster.network();
    network.switch_table().set_overlay({mem::Remap{va, 4096, kA, 0}});
    network.send_traversal(net::EndpointAddr::client(0),
                           network.packets().acquire(packet));
    network.switch_table().set_overlay({});
    cluster.queue().run();

    const accel::ReplayWindow::Key key{packet.id, 0};
    for (const NodeId node : {kA, kB, kC}) {
        SCOPED_TRACE("node " + std::to_string(node));
        const std::optional<net::TraversalPacket> cached =
            cluster.accelerator(node).replay_window().cached_response(key);
        ASSERT_TRUE(cached.has_value());
        EXPECT_EQ(cached->status, isa::TraversalStatus::kDone);
        EXPECT_EQ(cached->iterations_done, 1u);
        std::uint64_t loaded = 0;
        std::memcpy(&loaded, cached->scratch.data(), 8);
        EXPECT_EQ(loaded, 42u);
    }
    EXPECT_EQ(cluster.accelerator(kA).stats().forwards_sent.value(), 1u);
    EXPECT_EQ(cluster.accelerator(kB).stats().responses_sent.value(), 1u);
}

TEST(ReplicationPlane, ReplicaCopyAbortsOnBlackoutThenRecovers)
{
    core::ClusterConfig config;
    config.num_mem_nodes = 2;
    config.check.invariants = true;
    config.replication.replication_factor = 2;
    // Replica copies run on the slab copier and take its knobs from
    // the placement config, plane on or off. A healthy copy of this
    // extent takes about 30us; one lost round of chunks aborts it.
    config.placement.copy_rto = micros(30.0);
    config.placement.copy_max_retries = 3;
    // Node 1, the only replica target, goes dark across the first
    // copy (the scan starts it at 25us) and comes back long before
    // the heartbeat detector could declare it dead.
    config.faults.timeline.push_back(faults::NodeFaultWindow{
        /*node=*/1, faults::NodeFaultKind::kBlackout, micros(20.0),
        micros(60.0)});
    core::Cluster cluster(config);
    ASSERT_NE(cluster.replication_plane(), nullptr);
    const ReplicationPlane& plane = *cluster.replication_plane();

    const VirtAddr va = cluster.allocator().alloc_on(0, kPad, 256);
    ASSERT_NE(va, kNullAddr);
    const std::vector<std::uint8_t> data = pattern(kPad);
    cluster.memory().write(va, data.data(), data.size());

    // Between scans after the abort: its reserved backing is back on
    // node 1's free list, and its replica record is gone (nothing in
    // flight or queued until the next scan re-plans).
    cluster.queue().run_until(micros(65.0));
    EXPECT_EQ(plane.stats().copies_aborted.value(), 1u);
    EXPECT_GT(plane.stats().chunks_retransmitted.value(), 0u);
    EXPECT_EQ(plane.stats().replicas_established.value(), 0u);
    EXPECT_FALSE(plane.busy());
    EXPECT_EQ(plane.rereplication_backlog_bytes(), 0u);
    EXPECT_EQ(cluster.allocator().free_list_bytes(1), kPad);

    // After the window the scan re-establishes the replica, reusing
    // the freed backing; node 1 was never declared dead.
    cluster.queue().run();
    EXPECT_EQ(plane.stats().replicas_established.value(), 1u);
    EXPECT_EQ(plane.stats().nodes_declared_dead.value(), 0u);
    EXPECT_TRUE(plane.failovers().empty());
    EXPECT_EQ(cluster.allocator().free_list_bytes(1), 0u);
    EXPECT_FALSE(plane.busy());
    std::vector<std::uint8_t> readback(kPad);
    cluster.memory().read(va, readback.data(), readback.size());
    EXPECT_EQ(readback, data);
    EXPECT_EQ(cluster.verify_quiesce(), 0u);
}

// ---------------------------------------------------------------------
// Chaos CAS soak: kill the responder at every protocol phase
// ---------------------------------------------------------------------

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
 * One soak run: node 0 (which homes both counters and their padding
 * extent) blacks out at @p outage_start for 1.5ms while a closed loop
 * of CAS increments runs with bounded driver retry. Returns nothing —
 * every assertion is inside. The exactly-once contract is the sum
 * check: each of the @p total operations increments exactly one
 * counter exactly once, whether it was answered by the home, by a
 * replica after failover, or by the healed home after recovery.
 */
void
run_cas_soak_with_outage_at(Time outage_start, int total)
{
    core::ClusterConfig config;
    config.num_mem_nodes = 2;
    config.check.invariants = true;
    config.replication.replication_factor = 2;
    config.offload.adaptive_rto = true;
    config.offload.retransmit_timeout = micros(2000.0);
    config.faults.timeline.push_back(faults::NodeFaultWindow{
        /*node=*/0, faults::NodeFaultKind::kBlackout, outage_start,
        outage_start + micros(1500.0)});
    core::Cluster cluster(config);
    ASSERT_NE(cluster.replication_plane(), nullptr);

    // Two counters plus padding so the extent's COPY phase spans many
    // chunks — early outage starts land mid-copy.
    const VirtAddr va0 = cluster.allocator().alloc_on(0, 8, 8);
    const VirtAddr va1 = cluster.allocator().alloc_on(0, 8, 8);
    ASSERT_NE(cluster.allocator().alloc_on(0, kPad, 256), kNullAddr);
    cluster.memory().write_as<std::uint64_t>(va0, 0);
    cluster.memory().write_as<std::uint64_t>(va1, 0);

    auto program = std::make_shared<const isa::Program>(
        cas_increment_program());
    serve::TenantLoad load = serve::closed_loop(0, total, 8);
    load.max_retries = 16;
    load.retry_backoff = micros(200.0);
    const serve::TenantFleetStats result = serve::run_closed_loop(
        cluster.queue(), cluster.submitter(core::SystemKind::kPulse),
        [&](std::uint64_t index) {
            offload::Operation op;
            op.program = program;
            op.start_ptr = (index % 2 == 0) ? va0 : va1;
            op.init_scratch.assign(16, 0);
            return op;
        },
        load);

    // Every operation eventually completed, exactly once.
    EXPECT_EQ(result.completed, static_cast<std::uint64_t>(total));
    EXPECT_EQ(result.errors, 0u);
    EXPECT_EQ(result.failed, 0u);  // no retry budget exhausted
    const std::uint64_t sum =
        cluster.memory().read_as<std::uint64_t>(va0) +
        cluster.memory().read_as<std::uint64_t>(va1);
    EXPECT_EQ(sum, static_cast<std::uint64_t>(total));

    // The outage is long enough that death is always declared and a
    // failover runs, wherever in the protocol it hit.
    const ReplicationPlane& plane = *cluster.replication_plane();
    EXPECT_EQ(plane.stats().nodes_declared_dead.value(), 1u);
    EXPECT_EQ(plane.stats().failovers_executed.value(), 1u);
    EXPECT_EQ(plane.stats().recoveries.value(), 1u);
    EXPECT_FALSE(plane.busy());

    EXPECT_EQ(cluster.verify_quiesce(), 0u);
}

TEST(ReplicationPlane, CasSoakSurvivesOutageAtEveryPhase)
{
    // Phase sweep: before the first scan (10us), mid-COPY (30/60us for
    // a 128KiB extent that starts copying at the 25us scan), right
    // around establishment (100/150us), then deep into write-
    // synchronous mirroring and CAS traffic.
    const Time phases[] = {micros(10.0),  micros(30.0),
                           micros(60.0),  micros(100.0),
                           micros(150.0), micros(400.0),
                           micros(900.0), micros(1600.0)};
    for (const Time start : phases) {
        SCOPED_TRACE("outage_start_us=" +
                     std::to_string(to_micros(start)));
        // Enough operations that the closed loop is still driving
        // traffic (and therefore probing) when the latest outage
        // starts.
        run_cas_soak_with_outage_at(start, /*total=*/3000);
    }
}

}  // namespace
}  // namespace pulse::replication
