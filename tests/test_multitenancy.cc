/**
 * @file
 * Multi-tenant tests: multiple CPU nodes sharing one rack's
 * accelerators (request ids keep completions separated), plus the
 * fair-share admission policy of the supplementary material's
 * isolation extension — a flooding tenant must not starve a light one.
 */
#include <gtest/gtest.h>

#include "accel/admission_queue.h"
#include "core/cluster.h"
#include "ds/hash_table.h"
#include "ds/linked_list.h"
#include "serve/qos.h"
#include "sim/event_queue.h"

namespace pulse {
namespace {

using core::Cluster;
using core::ClusterConfig;
using core::SystemKind;

// ------------------------------------------------- admission queue

net::TraversalPacket
packet_from(ClientId client, std::uint64_t seq)
{
    net::TraversalPacket packet;
    packet.id = RequestId{client, seq};
    packet.origin = client;
    return packet;
}

/**
 * An admission queue over its own packet arena: push copies a packet
 * into a slot, pop copies it back out and releases the slot, so the
 * tests below read packets by value.
 */
class ArenaQueue
{
  public:
    explicit ArenaQueue(accel::SchedPolicy policy) : queue_(policy, packets_)
    {
    }

    void push(const net::TraversalPacket& packet)
    {
        queue_.push(packets_.acquire(packet));
    }

    net::TraversalPacket
    pop()
    {
        const net::PacketHandle handle = queue_.pop();
        const net::TraversalPacket packet = packets_[handle];
        packets_.release(handle);
        return packet;
    }

    bool empty() const { return queue_.empty(); }
    std::size_t size() const { return queue_.size(); }
    std::size_t live() const { return packets_.live(); }
    void set_qos(const serve::QosController* qos) { queue_.set_qos(qos); }

  private:
    net::PacketArena packets_;
    accel::AdmissionQueue queue_;
};

TEST(AdmissionQueue, FifoPreservesArrivalOrder)
{
    ArenaQueue queue(accel::SchedPolicy::kFifo);
    queue.push(packet_from(0, 1));
    queue.push(packet_from(1, 2));
    queue.push(packet_from(0, 3));
    EXPECT_EQ(queue.size(), 3u);
    EXPECT_EQ(queue.pop().id.seq, 1u);
    EXPECT_EQ(queue.pop().id.seq, 2u);
    EXPECT_EQ(queue.pop().id.seq, 3u);
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.live(), 0u);
}

TEST(AdmissionQueue, FairShareInterleavesClients)
{
    ArenaQueue queue(accel::SchedPolicy::kFairShare);
    // Client 0 floods; client 1 enqueues one request last.
    for (std::uint64_t i = 1; i <= 5; i++) {
        queue.push(packet_from(0, i));
    }
    queue.push(packet_from(1, 100));
    // The lone client-1 request is served within the first two pops.
    const auto first = queue.pop();
    const auto second = queue.pop();
    EXPECT_TRUE(first.origin == 1 || second.origin == 1);
    // Remaining pops drain client 0 in its own FIFO order.
    std::uint64_t previous = 0;
    while (!queue.empty()) {
        const auto packet = queue.pop();
        EXPECT_EQ(packet.origin, 0u);
        EXPECT_GT(packet.id.seq, previous);
        previous = packet.id.seq;
    }
}

TEST(AdmissionQueue, FairShareRoundRobinsManyClients)
{
    ArenaQueue queue(accel::SchedPolicy::kFairShare);
    for (ClientId client = 0; client < 4; client++) {
        for (std::uint64_t i = 0; i < 3; i++) {
            queue.push(packet_from(client, i));
        }
    }
    // Twelve pops: each window of 4 serves all 4 clients once.
    for (int round = 0; round < 3; round++) {
        std::set<ClientId> seen;
        for (int i = 0; i < 4; i++) {
            seen.insert(queue.pop().origin);
        }
        EXPECT_EQ(seen.size(), 4u) << "round " << round;
    }
}

/**
 * Regression: a flow that drains and immediately re-arrives must wait
 * one full rotation, not jump back to the head. The old cursor-based
 * round-robin left the cursor just past the drained flow's key, so a
 * fast re-arriving client could be re-served before peers that had
 * been waiting longer got their turn.
 */
TEST(AdmissionQueue, FairShareReArrivingClientWaitsItsTurn)
{
    ArenaQueue queue(accel::SchedPolicy::kFairShare);
    queue.push(packet_from(0, 1));
    queue.push(packet_from(0, 2));
    queue.push(packet_from(0, 3));
    queue.push(packet_from(1, 100));
    EXPECT_EQ(queue.pop().id.seq, 1u);    // client 0's turn
    EXPECT_EQ(queue.pop().id.seq, 100u);  // client 1 drains here
    // Client 1 re-arrives: it joins the ring's tail, behind client 0.
    queue.push(packet_from(1, 101));
    EXPECT_EQ(queue.pop().id.seq, 2u);
    EXPECT_EQ(queue.pop().id.seq, 101u);
    EXPECT_EQ(queue.pop().id.seq, 3u);
    EXPECT_TRUE(queue.empty());
}

net::TraversalPacket
tenant_packet(std::uint32_t tenant, std::uint64_t seq)
{
    net::TraversalPacket packet = packet_from(0, seq);
    packet.tenant = tenant;
    return packet;
}

TEST(AdmissionQueue, WeightedDrrWithoutQosIsPlainRoundRobin)
{
    ArenaQueue queue(accel::SchedPolicy::kWeightedDrr);
    for (std::uint64_t i = 0; i < 3; i++) {
        queue.push(tenant_packet(0, i * 2));
        queue.push(tenant_packet(1, i * 2 + 1));
    }
    // No controller attached: every tenant's quantum is 1.
    for (int round = 0; round < 3; round++) {
        EXPECT_EQ(queue.pop().tenant, 0u) << "round " << round;
        EXPECT_EQ(queue.pop().tenant, 1u) << "round " << round;
    }
}

TEST(AdmissionQueue, WeightedDrrServesTenantsInWeightProportion)
{
    sim::EventQueue clock;
    serve::ServeConfig serve_config;
    serve_config.on = true;
    serve_config.tenants.push_back({.id = 0, .weight = 3});
    serve_config.tenants.push_back({.id = 1, .weight = 1});
    serve::QosController qos(clock, serve_config);

    ArenaQueue queue(accel::SchedPolicy::kWeightedDrr);
    queue.set_qos(&qos);
    for (std::uint64_t i = 0; i < 8; i++) {
        queue.push(tenant_packet(0, i));
        queue.push(tenant_packet(1, 100 + i));
    }
    // Weight 3 vs 1: each full round serves 3 of tenant 0, then 1 of
    // tenant 1, and packets within a tenant stay in FIFO order.
    const std::uint32_t expected[] = {0, 0, 0, 1, 0, 0, 0, 1,
                                      0, 0, 1, 1};
    std::uint64_t seq0 = 0;
    std::uint64_t seq1 = 100;
    for (std::size_t i = 0; i < std::size(expected); i++) {
        const auto packet = queue.pop();
        EXPECT_EQ(packet.tenant, expected[i]) << "pop " << i;
        if (packet.tenant == 0) {
            EXPECT_EQ(packet.id.seq, seq0++);
        } else {
            EXPECT_EQ(packet.id.seq, seq1++);
        }
    }
    // Tenant 0 drained after 8 pops of its packets; the tail is all
    // tenant 1.
    while (!queue.empty()) {
        EXPECT_EQ(queue.pop().tenant, 1u);
    }
    EXPECT_EQ(seq0, 8u);
}

// ---------------------------------------------------- multi-client

TEST(MultiClient, TwoClientsShareTheRackCorrectly)
{
    ClusterConfig config;
    config.num_clients = 2;
    config.num_mem_nodes = 2;
    Cluster cluster(config);
    ds::HashTable table(cluster.memory(), cluster.allocator(),
                        ds::HashTableConfig{.num_buckets = 16,
                                            .partitions = 2});
    for (std::uint64_t k = 1; k <= 200; k++) {
        table.insert(k);
    }

    int done[2] = {0, 0};
    int correct[2] = {0, 0};
    for (int i = 0; i < 40; i++) {
        const ClientId client = i % 2;
        const std::uint64_t key = 1 + (i * 7) % 200;
        auto op = table.make_find(key, {});
        op.done = [&, client, key](offload::Completion&& completion) {
            done[client]++;
            const auto result = table.parse_find(completion);
            if (result.found &&
                result.value_word == ds::value_pattern_word(key)) {
                correct[client]++;
            }
        };
        cluster.submitter(SystemKind::kPulse, client)(std::move(op));
    }
    cluster.queue().run();
    EXPECT_EQ(done[0], 20);
    EXPECT_EQ(done[1], 20);
    EXPECT_EQ(correct[0], 20);
    EXPECT_EQ(correct[1], 20);
    EXPECT_EQ(cluster.offload_engine(0).stats().offloaded.value(),
              20u);
    EXPECT_EQ(cluster.offload_engine(1).stats().offloaded.value(),
              20u);
}

// --------------------------------------------------- fair isolation

/**
 * Tenant A floods a small accelerator with long walks while tenant B
 * issues short lookups. Under FIFO, B queues behind A's backlog;
 * under fair share, B's requests jump the per-client queue.
 */
Time
victim_latency(accel::SchedPolicy policy)
{
    ClusterConfig config;
    config.num_clients = 2;
    config.accel.sched_policy = policy;
    // A tiny accelerator so queueing dominates: 1 core, 1 workspace.
    config.accel.num_cores = 1;
    config.accel.workspaces_per_logic = 1;
    Cluster cluster(config);

    ds::LinkedList list(cluster.memory(), cluster.allocator());
    std::vector<std::uint64_t> values(512);
    for (std::size_t i = 0; i < values.size(); i++) {
        values[i] = i;
    }
    list.build(values, 0);

    // Tenant A: 32 long walks, all submitted at t=0.
    for (int i = 0; i < 32; i++) {
        auto op = list.make_walk(400, {});
        op.done = nullptr;
        cluster.submitter(SystemKind::kPulse, 0)(std::move(op));
    }
    // Tenant B: one short lookup, submitted just after.
    Time latency = 0;
    bool done = false;
    cluster.queue().schedule_after(micros(5.0), [&] {
        auto op = list.make_walk(4, {});
        op.done = [&](offload::Completion&& completion) {
            latency = completion.latency;
            done = true;
        };
        cluster.submitter(SystemKind::kPulse, 1)(std::move(op));
    });
    cluster.queue().run();
    EXPECT_TRUE(done);
    return latency;
}

TEST(FairShare, IsolatesVictimFromFloodingTenant)
{
    const Time fifo = victim_latency(accel::SchedPolicy::kFifo);
    const Time fair = victim_latency(accel::SchedPolicy::kFairShare);
    // Under FIFO the victim waits for most of the flood; fair-share
    // serves it after at most one in-service request.
    EXPECT_GT(fifo, fair * 5);
    EXPECT_LT(fair, micros(120.0));
}

}  // namespace
}  // namespace pulse
