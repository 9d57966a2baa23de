/**
 * @file
 * Rack network model: clients and memory nodes star-wired to one
 * programmable switch (the paper's testbed topology, section 6).
 *
 * Two delivery services are offered:
 *   - send_traversal(): pulse packets, routed *by the switch* according
 *     to the SwitchTable policy (cur_ptr match) — the in-network half of
 *     the paper's design;
 *   - send_message(): endpoint-addressed timed delivery with byte-size
 *     accounting, used by the RPC/RPC-W/AIFM and page-cache baselines
 *     (their packets route by IP, i.e. explicit destination).
 *
 * Both services share the same links and switch pipeline, so bandwidth
 * comparisons across systems (Fig. 6) are apples-to-apples. An
 * optional fault-injection plane (src/faults) adds per-link
 * loss/duplication/corruption/jitter and scripted node stall/blackout
 * windows; when no plane is attached the fault path is a strict no-op.
 */
#ifndef PULSE_NET_NETWORK_H
#define PULSE_NET_NETWORK_H

#include <functional>
#include <memory>
#include <vector>

#include "common/serial.h"
#include "common/units.h"
#include "faults/fault_plane.h"
#include "net/link.h"
#include "net/packet.h"
#include "net/switch.h"
#include "sim/event_queue.h"
#include "trace/trace.h"

namespace pulse::net {

/** Timing/topology parameters (defaults match DESIGN.md calibration). */
struct NetworkConfig
{
    std::uint32_t num_clients = 1;
    std::uint32_t num_mem_nodes = 1;

    /** Wire bandwidth per port (100 Gbps NICs/switch, section 6). */
    Rate link_bandwidth = gbps_bits(100.0);

    /** One-way propagation + PHY + MAC latency per link. */
    Time link_propagation = micros(2.0);

    /** Switch pipeline latency per packet (Tofino-class). */
    Time switch_latency = nanos(600.0);

    /** Per-packet NIC/driver overhead at client endpoints (DPDK). */
    Time client_nic_overhead = nanos(350.0);

    /**
     * Per-packet NIC overhead at memory-node endpoints *below* the
     * accelerator's own network stack (which models its 430 ns
     * separately); kept at zero by default to avoid double counting.
     */
    Time mem_node_nic_overhead = 0;
};

/**
 * Lifetime accounting of every traversal packet the fabric handled,
 * for the packet-conservation invariant: once the event queue drains,
 * each injected or duplicated copy must be delivered or charged to
 * exactly one accounted loss bucket. Deliberately *not* cleared by
 * reset_stats(): a measurement-window stat reset must not unbalance
 * conservation for copies injected before it.
 */
struct TraversalFlow
{
    std::uint64_t injected = 0;    ///< send_traversal() calls
    std::uint64_t duplicated = 0;  ///< extra copies the faults created
    std::uint64_t delivered = 0;   ///< copies that reached a sink
    std::uint64_t source_dark = 0;      ///< sender node blacked out
    std::uint64_t plan_dropped = 0;     ///< fault-plane drops
    std::uint64_t delivery_blackout = 0;  ///< receiver dark at arrival
    std::uint64_t checksum_dropped = 0;   ///< NIC discarded (corrupt)

    /** True when every copy is accounted for. */
    bool
    balanced() const
    {
        return injected + duplicated ==
               delivered + source_dark + plan_dropped +
                   delivery_blackout + checksum_dropped;
    }
};

/** Delivery callback for traversal packets. */
using TraversalSink = std::function<void(TraversalPacket&&)>;

/** Delivery callback for generic messages. */
using MessageSink = std::function<void()>;

/** The rack fabric. */
class Network
{
  public:
    Network(sim::EventQueue& queue, const NetworkConfig& config);

    /** Register the handler invoked when @p addr receives a packet. */
    void attach_traversal_sink(EndpointAddr addr, TraversalSink sink);

    /** The switch's match-action table (install one rule per node). */
    SwitchTable& switch_table() { return table_; }
    const SwitchTable& switch_table() const { return table_; }

    /**
     * Send a pulse traversal packet from @p from; the switch decides
     * the destination. Invalid-pointer requests come back to the origin
     * client as kMemFault responses.
     */
    void send_traversal(EndpointAddr from, TraversalPacket packet);

    /**
     * Timed point-to-point message of @p size bytes; @p deliver runs at
     * the arrival time. Used by the baseline systems.
     */
    void send_message(EndpointAddr from, EndpointAddr to, Bytes size,
                      MessageSink deliver);

    /** Bytes transmitted by @p addr so far. */
    Bytes bytes_sent_by(EndpointAddr addr) const;

    /** Bytes received by @p addr so far. */
    Bytes bytes_received_by(EndpointAddr addr) const;

    /** Packets dropped by the loss process. */
    std::uint64_t packets_dropped() const { return dropped_; }

    /** Packets the switch routed. */
    std::uint64_t packets_routed() const { return routed_; }

    /** Packets a receiving NIC discarded for a bad header checksum. */
    std::uint64_t checksum_drops() const { return checksum_drops_; }

    /** Lifetime traversal-packet accounting (conservation check). */
    const TraversalFlow& traversal_flow() const { return flow_; }

    /**
     * Attach the fault-injection plane (nullptr detaches). The network
     * does not own the plane; the cluster does. With no plane attached
     * — or a plane whose config is all-quiet — delivery timing is
     * bit-identical to the plain network.
     */
    void attach_fault_plane(faults::FaultPlane* plane)
    {
        fault_plane_ = plane;
    }

    /**
     * Attach the cluster's span tracer (nullptr detaches). Sampled
     * traversal packets then get per-hop spans (uplink, switch,
     * downlink). Recording is synchronous and draws no randomness, so
     * delivery timing is identical with or without a tracer.
     */
    void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

    /** Reset byte/packet statistics. */
    void reset_stats();

    /**
     * Checkpoint support (core/checkpoint.cc): link horizons, byte and
     * flow accounting, and the switch table.
     * Requires a quiesced network (no packets on the wire), which the
     * caller guarantees by checkpointing only on an empty event queue.
     */
    void checkpoint(StateIo& io);

    const NetworkConfig& config() const { return config_; }

  private:
    struct Port
    {
        std::unique_ptr<Link> to_switch;
        std::unique_ptr<Link> from_switch;
        TraversalSink traversal_sink;
        Bytes tx_bytes = 0;
        Bytes rx_bytes = 0;
    };

    /**
     * Combined verdict for one end-to-end delivery: the fault plane's
     * judgement on both directed links (uplink of the sender, downlink
     * of the receiver).
     */
    struct DeliveryPlan
    {
        bool drop = false;
        bool duplicate = false;
        bool corrupt = false;
        std::uint64_t corrupt_mask = 0;
        Time extra_delay = 0;
    };

    Port& port(EndpointAddr addr);
    const Port& port(EndpointAddr addr) const;
    Time nic_overhead(EndpointAddr addr) const;

    /**
     * Single fault decision point for both delivery services. Counts
     * drops; draws randomness only when a fault knob is on.
     */
    DeliveryPlan plan_delivery(EndpointAddr from, EndpointAddr to);

    /** True when @p addr is a memory node inside a blackout window. */
    bool source_dark(EndpointAddr addr);

    /**
     * Schedule one traversal-packet copy: downlink serialization, node
     * stall/blackout handling, NIC checksum verification, then sink.
     */
    void deliver_traversal(EndpointAddr to, Time at_switch, Bytes size,
                           TraversalPacket packet);

    /** First hop: endpoint to switch; returns switch-arrival time. */
    Time uplink(EndpointAddr from, Bytes size);

    /** Second hop starting at @p at_switch; returns delivery time. */
    Time downlink(EndpointAddr to, Time at_switch, Bytes size);

    sim::EventQueue& queue_;
    NetworkConfig config_;
    SwitchTable table_;
    faults::FaultPlane* fault_plane_ = nullptr;
    trace::Tracer* tracer_ = nullptr;
    std::vector<Port> client_ports_;
    std::vector<Port> node_ports_;
    std::uint64_t dropped_ = 0;
    std::uint64_t routed_ = 0;
    std::uint64_t checksum_drops_ = 0;
    TraversalFlow flow_;
};

}  // namespace pulse::net

#endif  // PULSE_NET_NETWORK_H
