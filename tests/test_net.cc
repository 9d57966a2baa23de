/**
 * @file
 * Unit tests for the network substrate: packets, links, the
 * programmable switch's routing policy, and the rack network.
 */
#include <gtest/gtest.h>

#include "faults/fault_plane.h"
#include "isa/program.h"
#include "net/network.h"

namespace pulse::net {
namespace {

std::shared_ptr<const isa::Program>
tiny_program()
{
    isa::ProgramBuilder b;
    b.load(16)
        .compare(isa::sp(0), isa::dat(0))
        .jump_eq("done")
        .move(isa::cur(), isa::dat(8))
        .next_iter()
        .label("done")
        .ret();
    return std::make_shared<const isa::Program>(b.build());
}

// ----------------------------------------------------------- packet

TEST(Packet, WireSizeAccountsAllFields)
{
    const auto program = tiny_program();
    TraversalPacket packet;
    attach_program(packet, program);
    packet.scratch.assign(64, 0);
    EXPECT_EQ(packet.wire_size(), kNetHeaderBytes + kPulseHeaderBytes +
                                      packet.code_size + 64);
    EXPECT_GT(packet.code_size, 0u);
    // Program ids are much smaller than shipped code.
    EXPECT_GT(packet.code_size, kCodeIdBytes);
}

// ------------------------------------------------------------- link

TEST(Link, SerializationPlusPropagation)
{
    Link link(gbps_bits(100.0), micros(2.0));
    // 12500 B at 12.5 GB/s = 1 us serialization + 2 us propagation.
    const Time arrival = link.transmit(0, 12'500);
    EXPECT_EQ(arrival, micros(3.0));
    EXPECT_EQ(link.bytes_sent(), 12'500u);
}

TEST(Link, BackToBackPacketsQueue)
{
    Link link(gbps_bits(100.0), 0);
    const Time first = link.transmit(0, 12'500);
    const Time second = link.transmit(0, 12'500);
    EXPECT_EQ(second, 2 * first);
    // After idle, no queueing.
    const Time third = link.transmit(second + micros(5.0), 12'500);
    EXPECT_EQ(third, second + micros(5.0) + first);
}

// ------------------------------------------------------------ switch

TEST(SwitchTable, LookupByRange)
{
    SwitchTable table;
    table.add_rule({0x1000, 0x1000, 0});
    table.add_rule({0x2000, 0x1000, 1});
    EXPECT_EQ(table.num_rules(), 2u);
    EXPECT_EQ(*table.lookup(0x1800), 0u);
    EXPECT_EQ(*table.lookup(0x2000), 1u);
    EXPECT_FALSE(table.lookup(0x3000).has_value());
    EXPECT_TRUE(table.remove_rule(0));
    EXPECT_FALSE(table.lookup(0x1800).has_value());
}

TEST(SwitchTable, RequestsRouteByCurPtr)
{
    SwitchTable table;
    table.add_rule({0x1000, 0x1000, 0});
    TraversalPacket packet;
    packet.origin = 3;
    packet.cur_ptr = 0x1400;
    const RouteDecision decision = table.route(packet);
    EXPECT_EQ(decision.destination,
              EndpointAddr::mem_node(0));
    EXPECT_FALSE(decision.invalid_pointer);
}

TEST(SwitchTable, NotLocalResponsesReRoute)
{
    SwitchTable table;
    table.add_rule({0x1000, 0x1000, 0});
    table.add_rule({0x2000, 0x1000, 1});
    TraversalPacket packet;
    packet.origin = 0;
    packet.is_response = true;
    packet.status = isa::TraversalStatus::kNotLocal;
    packet.cur_ptr = 0x2400;
    packet.allow_switch_continuation = true;
    EXPECT_EQ(table.route(packet).destination,
              EndpointAddr::mem_node(1));

    // pulse-ACC: the same packet goes back to the client.
    packet.allow_switch_continuation = false;
    EXPECT_EQ(table.route(packet).destination,
              EndpointAddr::client(0));
}

TEST(SwitchTable, CompletedResponsesGoToOrigin)
{
    SwitchTable table;
    table.add_rule({0x1000, 0x1000, 0});
    TraversalPacket packet;
    packet.origin = 2;
    packet.is_response = true;
    packet.status = isa::TraversalStatus::kDone;
    packet.cur_ptr = 0x1400;  // even though it matches a node
    EXPECT_EQ(table.route(packet).destination,
              EndpointAddr::client(2));
}

TEST(SwitchTable, InvalidPointerFlagged)
{
    SwitchTable table;
    table.add_rule({0x1000, 0x1000, 0});
    TraversalPacket packet;
    packet.origin = 1;
    packet.cur_ptr = 0x9999;
    const RouteDecision decision = table.route(packet);
    EXPECT_TRUE(decision.invalid_pointer);
    EXPECT_EQ(decision.destination, EndpointAddr::client(1));
}

// ----------------------------------------------------------- network

struct NetFixture : ::testing::Test
{
    NetFixture()
    {
        config.num_clients = 1;
        config.num_mem_nodes = 2;
    }

    sim::EventQueue queue;
    NetworkConfig config;
};

TEST_F(NetFixture, MessageDeliveryTiming)
{
    Network network(queue, config);
    Time delivered_at = -1;
    network.send_message(EndpointAddr::client(0),
                         EndpointAddr::mem_node(1), 1250,
                         [&] { delivered_at = queue.now(); });
    queue.run();
    // NIC 350 ns + serialization 100 ns + prop 2 us + switch 600 ns +
    // serialization 100 ns + prop 2 us = ~5.15 us.
    EXPECT_NEAR(to_micros(delivered_at), 5.15, 0.05);
    EXPECT_EQ(network.bytes_sent_by(EndpointAddr::client(0)), 1250u);
    EXPECT_EQ(network.bytes_received_by(EndpointAddr::mem_node(1)),
              1250u);
}

TEST_F(NetFixture, TraversalRoutedThroughSwitchTable)
{
    Network network(queue, config);
    network.switch_table().add_rule({0x5000, 0x1000, 1});
    bool delivered = false;
    network.attach_traversal_sink(
        EndpointAddr::mem_node(1), [&](TraversalPacket&& packet) {
            delivered = true;
            EXPECT_EQ(packet.cur_ptr, 0x5800u);
        });
    network.attach_traversal_sink(EndpointAddr::mem_node(0),
                                  [&](TraversalPacket&&) {
                                      FAIL() << "routed to wrong node";
                                  });
    const auto program = tiny_program();
    TraversalPacket packet;
    attach_program(packet, program);
    packet.cur_ptr = 0x5800;
    network.send_traversal(EndpointAddr::client(0), std::move(packet));
    queue.run();
    EXPECT_TRUE(delivered);
    EXPECT_EQ(network.packets_routed(), 1u);
}

TEST_F(NetFixture, InvalidPointerBecomesMemFaultResponse)
{
    Network network(queue, config);  // no rules installed
    bool delivered = false;
    network.attach_traversal_sink(
        EndpointAddr::client(0), [&](TraversalPacket&& packet) {
            delivered = true;
            EXPECT_TRUE(packet.is_response);
            EXPECT_EQ(packet.status,
                      isa::TraversalStatus::kMemFault);
        });
    const auto program = tiny_program();
    TraversalPacket packet;
    attach_program(packet, program);
    packet.origin = 0;
    packet.cur_ptr = 0xBAD;
    network.send_traversal(EndpointAddr::client(0), std::move(packet));
    queue.run();
    EXPECT_TRUE(delivered);
}

TEST_F(NetFixture, ForwardedContinuationBecomesRequest)
{
    Network network(queue, config);
    network.switch_table().add_rule({0x5000, 0x1000, 1});
    bool delivered = false;
    network.attach_traversal_sink(
        EndpointAddr::mem_node(1), [&](TraversalPacket&& packet) {
            delivered = true;
            EXPECT_FALSE(packet.is_response);  // request again
        });
    const auto program = tiny_program();
    TraversalPacket packet;
    attach_program(packet, program);
    packet.is_response = true;
    packet.status = isa::TraversalStatus::kNotLocal;
    packet.cur_ptr = 0x5100;
    network.send_traversal(EndpointAddr::mem_node(0),
                           std::move(packet));
    queue.run();
    EXPECT_TRUE(delivered);
}

TEST_F(NetFixture, LossDropsDeterministically)
{
    faults::FaultConfig faults;
    faults.links.loss = 1.0;
    faults::FaultPlane plane(faults);
    Network network(queue, config);
    network.attach_fault_plane(&plane);
    network.send_message(EndpointAddr::client(0),
                         EndpointAddr::mem_node(0), 100,
                         [] { FAIL() << "lost packet delivered"; });
    queue.run();
    EXPECT_EQ(network.packets_dropped(), 1u);
}

TEST_F(NetFixture, StatsReset)
{
    Network network(queue, config);
    network.send_message(EndpointAddr::client(0),
                         EndpointAddr::mem_node(0), 500, [] {});
    queue.run();
    EXPECT_GT(network.bytes_sent_by(EndpointAddr::client(0)), 0u);
    network.reset_stats();
    EXPECT_EQ(network.bytes_sent_by(EndpointAddr::client(0)), 0u);
    EXPECT_EQ(network.packets_routed(), 0u);
}

}  // namespace
}  // namespace pulse::net
