#include "net/network.h"

#include <utility>

#include "common/logging.h"

namespace pulse::net {
namespace {

trace::Location
location_of(EndpointAddr addr)
{
    return addr.kind == EndpointAddr::Kind::kClient
               ? trace::Location::kClient
               : trace::Location::kMemNode;
}

}  // namespace

Network::Network(sim::EventQueue& queue, const NetworkConfig& config)
    : queue_(queue), config_(config)
{
    PULSE_ASSERT(config.num_clients > 0, "network needs a client");
    PULSE_ASSERT(config.num_mem_nodes > 0, "network needs a memory node");
    const auto make_port = [&] {
        Port port;
        port.to_switch = std::make_unique<Link>(config.link_bandwidth,
                                                config.link_propagation);
        port.from_switch = std::make_unique<Link>(config.link_bandwidth,
                                                  config.link_propagation);
        return port;
    };
    for (std::uint32_t i = 0; i < config.num_clients; i++) {
        client_ports_.push_back(make_port());
    }
    for (std::uint32_t i = 0; i < config.num_mem_nodes; i++) {
        node_ports_.push_back(make_port());
    }
}

Network::Port&
Network::port(EndpointAddr addr)
{
    auto& ports = addr.kind == EndpointAddr::Kind::kClient
                      ? client_ports_
                      : node_ports_;
    PULSE_ASSERT(addr.index < ports.size(), "bad endpoint index %u",
                 addr.index);
    return ports[addr.index];
}

const Network::Port&
Network::port(EndpointAddr addr) const
{
    return const_cast<Network*>(this)->port(addr);
}

Time
Network::nic_overhead(EndpointAddr addr) const
{
    return addr.kind == EndpointAddr::Kind::kClient
               ? config_.client_nic_overhead
               : config_.mem_node_nic_overhead;
}

void
Network::attach_traversal_sink(EndpointAddr addr, TraversalSink sink)
{
    port(addr).traversal_sink = std::move(sink);
}

Time
Network::uplink(EndpointAddr from, Bytes size)
{
    Port& p = port(from);
    p.tx_bytes += size;
    const Time ready = queue_.now() + nic_overhead(from);
    return p.to_switch->transmit(ready, size);
}

Time
Network::downlink(EndpointAddr to, Time at_switch, Bytes size)
{
    Port& p = port(to);
    p.rx_bytes += size;
    const Time arrival = p.from_switch->transmit(at_switch, size);
    return arrival + nic_overhead(to);
}

Network::DeliveryPlan
Network::plan_delivery(EndpointAddr from, EndpointAddr to)
{
    DeliveryPlan plan;
    if (fault_plane_ == nullptr || !fault_plane_->enabled()) {
        return plan;
    }
    const auto merge = [&plan](const faults::PacketFate& fate) {
        plan.drop |= fate.drop;
        plan.duplicate |= fate.duplicate;
        if (fate.corrupt) {
            plan.corrupt = true;
            plan.corrupt_mask = fate.corrupt_mask;
        }
        plan.extra_delay += fate.extra_delay;
    };
    merge(fault_plane_->judge(from, faults::LinkDir::kToSwitch));
    if (!plan.drop) {
        // Only a packet that survived the uplink reaches the downlink.
        merge(fault_plane_->judge(to, faults::LinkDir::kFromSwitch));
    }
    if (plan.drop) {
        dropped_++;
    }
    return plan;
}

bool
Network::source_dark(EndpointAddr addr)
{
    return fault_plane_ != nullptr && fault_plane_->enabled() &&
           addr.kind == EndpointAddr::Kind::kMemNode &&
           fault_plane_->node_dark(addr.index, queue_.now());
}

void
Network::deliver_traversal(EndpointAddr to, Time at_switch, Bytes size,
                           TraversalPacket packet)
{
    Time delivery = downlink(to, at_switch, size);
    if (tracer_ != nullptr && tracer_->enabled() &&
        packet.trace.sampled) {
        // Downlink span covers serialization + propagation + NIC (and
        // any stall-hold extension applied below is intentionally not
        // billed to the network: the fault plane accounts it).
        tracer_->record({packet.id, trace::SpanKind::kNicDownlink,
                         location_of(to), to.index, at_switch,
                         delivery - at_switch,
                         static_cast<std::uint64_t>(size)});
    }
    if (fault_plane_ != nullptr && fault_plane_->enabled() &&
        to.kind == EndpointAddr::Kind::kMemNode) {
        if (fault_plane_->node_dark(to.index, delivery)) {
            fault_plane_->count_blackout_drop();
            flow_.delivery_blackout++;
            return;
        }
        const Time release =
            fault_plane_->node_release(to.index, delivery);
        if (release > delivery) {
            // Stalled node: the NIC holds the packet until the stall
            // window ends (think PFC pause / frozen host).
            fault_plane_->count_stall_hold();
            delivery = release;
        }
    }
    Port& dest = port(to);
    PULSE_ASSERT(static_cast<bool>(dest.traversal_sink),
                 "no traversal sink at destination endpoint");
    TraversalSink& sink = dest.traversal_sink;
    queue_.schedule_at(delivery, [this, &sink,
                                  packet = std::move(packet)]() mutable {
        if (!verify_packet(packet)) {
            // Receiving NIC: UDP checksum mismatch, discard silently.
            checksum_drops_++;
            flow_.checksum_dropped++;
            return;
        }
        flow_.delivered++;
        sink(std::move(packet));
    });
}

void
Network::send_traversal(EndpointAddr from, TraversalPacket packet)
{
    flow_.injected++;
    if (source_dark(from)) {
        // A blacked-out node transmits nothing.
        fault_plane_->count_blackout_drop();
        flow_.source_dark++;
        return;
    }
    if (packet.checksum == 0) {
        // Sender NIC seals the header (models UDP checksum offload).
        seal_packet(packet);
    }
    const Bytes size = packet.wire_size();
    const Time uplink_done = uplink(from, size);
    const Time at_switch = uplink_done + config_.switch_latency;
    if (tracer_ != nullptr && tracer_->enabled() &&
        packet.trace.sampled) {
        tracer_->record({packet.id, trace::SpanKind::kNicUplink,
                         location_of(from), from.index, queue_.now(),
                         uplink_done - queue_.now(),
                         static_cast<std::uint64_t>(size)});
        tracer_->record({packet.id, trace::SpanKind::kSwitchRoute,
                         trace::Location::kSwitch, 0, uplink_done,
                         config_.switch_latency,
                         static_cast<std::uint64_t>(size)});
    }

    // The switch routes at at_switch; model the decision now. Live
    // migration can flip a rule in the window between decision and
    // delivery, making the decision stale — that is safe: the packet
    // lands on a node whose TCAM was punched, misses, and returns
    // kNotLocal, which re-routes it through the updated table (the
    // same backstop that covers packets already in flight).
    RouteDecision decision = table_.route(packet);
    routed_++;
    if (decision.invalid_pointer) {
        packet.is_response = true;
        packet.status = isa::TraversalStatus::kMemFault;
    } else if (decision.destination.kind == EndpointAddr::Kind::kMemNode &&
               packet.is_response) {
        // Re-routed continuation: arrives at the next node as a request
        // (paper section 5: response becomes request).
        packet.is_response = false;
        packet.status = isa::TraversalStatus::kDone;
    }

    DeliveryPlan plan = plan_delivery(from, decision.destination);
    if (plan.drop) {
        flow_.plan_dropped++;
        return;
    }
    if (plan.corrupt) {
        // In-flight bit flips on a sealed field; routing already
        // happened (per-hop link CRCs pass, the end-to-end checksum
        // catches it at the receiving NIC).
        packet.cur_ptr ^= plan.corrupt_mask;
    }
    if (plan.duplicate) {
        flow_.duplicated++;
        TraversalPacket copy = packet;
        deliver_traversal(decision.destination,
                          at_switch + plan.extra_delay, size,
                          std::move(copy));
    }
    deliver_traversal(decision.destination, at_switch + plan.extra_delay,
                      size, std::move(packet));
}

void
Network::send_message(EndpointAddr from, EndpointAddr to, Bytes size,
                      MessageSink deliver)
{
    if (source_dark(from)) {
        fault_plane_->count_blackout_drop();
        return;
    }
    const Time at_switch = uplink(from, size) + config_.switch_latency;
    routed_++;
    DeliveryPlan plan = plan_delivery(from, to);
    if (plan.drop) {
        return;
    }
    const auto schedule_copy = [&](MessageSink sink) {
        Time delivery =
            downlink(to, at_switch + plan.extra_delay, size);
        if (fault_plane_ != nullptr && fault_plane_->enabled() &&
            to.kind == EndpointAddr::Kind::kMemNode) {
            if (fault_plane_->node_dark(to.index, delivery)) {
                fault_plane_->count_blackout_drop();
                return;
            }
            const Time release =
                fault_plane_->node_release(to.index, delivery);
            if (release > delivery) {
                fault_plane_->count_stall_hold();
                delivery = release;
            }
        }
        if (plan.corrupt) {
            // The message still burns downlink bandwidth but the
            // receiving NIC discards it (bad checksum).
            checksum_drops_++;
            return;
        }
        queue_.schedule_at(delivery, std::move(sink));
    };
    if (plan.duplicate) {
        schedule_copy(deliver);
    }
    schedule_copy(std::move(deliver));
}

Bytes
Network::bytes_sent_by(EndpointAddr addr) const
{
    return port(addr).tx_bytes;
}

Bytes
Network::bytes_received_by(EndpointAddr addr) const
{
    return port(addr).rx_bytes;
}

void
Network::reset_stats()
{
    for (auto* ports : {&client_ports_, &node_ports_}) {
        for (Port& p : *ports) {
            p.tx_bytes = 0;
            p.rx_bytes = 0;
            p.to_switch->reset_stats();
            p.from_switch->reset_stats();
        }
    }
    dropped_ = 0;
    routed_ = 0;
    checksum_drops_ = 0;
}

void
Network::checkpoint(StateIo& io)
{
    io.tag("NETW");
    for (std::uint64_t* counter :
         {&dropped_, &routed_, &checksum_drops_, &flow_.injected,
          &flow_.duplicated, &flow_.delivered, &flow_.source_dark,
          &flow_.plan_dropped, &flow_.delivery_blackout,
          &flow_.checksum_dropped}) {
        io.u64(*counter);
    }
    for (auto* ports : {&client_ports_, &node_ports_}) {
        io.expect(std::uint64_t{ports->size()}, "port count");
        for (Port& p : *ports) {
            p.to_switch->checkpoint(io);
            p.from_switch->checkpoint(io);
            io.u64(p.tx_bytes);
            io.u64(p.rx_bytes);
        }
    }
    table_.checkpoint(io, node_ports_.size());
}

}  // namespace pulse::net
