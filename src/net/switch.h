/**
 * @file
 * Programmable-switch model (paper sections 5 and 6).
 *
 * The Tofino program pulse installs is tiny by design: one match rule
 * per memory node, matching the cur_ptr field embedded in the UDP
 * payload of traversal packets against the node's virtual-address range
 * and emitting the corresponding output port. This models exactly that
 * match-action table plus the routing policy of section 5:
 *
 *   - request packets route by cur_ptr to the owning memory node;
 *   - response packets whose traversal must continue elsewhere
 *     (status == kNotLocal) are *re-routed* by cur_ptr — the half-RTT
 *     saving over bouncing through the CPU node;
 *   - all other responses (done / fault / iteration cap) route to the
 *     origin client, as does any packet whose cur_ptr matches no rule
 *     (invalid pointer).
 *
 * Per-packet processing happens at a fixed pipeline latency at line
 * rate, like the hardware.
 */
#ifndef PULSE_NET_SWITCH_H
#define PULSE_NET_SWITCH_H

#include <optional>
#include <vector>

#include "common/serial.h"
#include "common/stats.h"
#include "mem/address_map.h"
#include "net/packet.h"

namespace pulse::net {

/** One cur_ptr match rule. */
struct SwitchRule
{
    VirtAddr base = 0;
    Bytes size = 0;
    NodeId node = kInvalidNode;

    bool
    matches(VirtAddr va) const
    {
        return va >= base && va - base < size;
    }
};

/** Where the switch decided to send a packet. */
struct RouteDecision
{
    EndpointAddr destination;
    bool invalid_pointer = false;  ///< no rule matched a request's cur_ptr
};

/** The match-action table + routing policy. */
class SwitchTable
{
  public:
    SwitchTable() = default;

    /** Install one rule per memory node. */
    void add_rule(const SwitchRule& rule);

    /** Number of installed rules (paper: one per memory node). */
    std::size_t num_rules() const { return rules_.size(); }

    /**
     * Replace the overlay with one rule per @p remaps entry: sub-ranges
     * carved out of some node's home region that now route to a
     * different node. Overlay rules are more specific than the
     * per-node home rules and win the match. @p remaps must be sorted
     * and non-overlapping (AddressMap::remaps()); VA-adjacent entries
     * to the same node coalesce into one rule. Every route flip
     * re-installs the overlay, so the switch always mirrors the
     * AddressMap's remap set.
     */
    void set_overlay(const std::vector<mem::Remap>& remaps);

    /** Owning node for @p va, if any rule matches (overlay wins). */
    std::optional<NodeId> lookup(VirtAddr va) const;

    /** Apply the section-5 routing policy to @p packet. */
    RouteDecision route(const TraversalPacket& packet) const;

    /**
     * Checkpoint support (core/checkpoint.cc): home rules and overlay.
     * Restoring rejects a rule naming a node at or above @p num_nodes.
     */
    void checkpoint(StateIo& io, std::size_t num_nodes);

  private:
    std::vector<SwitchRule> rules_;
    std::vector<SwitchRule> overlay_;  // sorted by base, non-overlapping
};

}  // namespace pulse::net

#endif  // PULSE_NET_SWITCH_H
