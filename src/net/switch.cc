#include "net/switch.h"

#include <algorithm>

#include "common/logging.h"

namespace pulse::net {

void
SwitchTable::add_rule(const SwitchRule& rule)
{
    PULSE_ASSERT(rule.size > 0, "empty switch rule");
    rules_.push_back(rule);
}

void
SwitchTable::set_overlay(const std::vector<mem::Remap>& remaps)
{
    overlay_.clear();
    for (const mem::Remap& remap : remaps) {
        PULSE_ASSERT(remap.length > 0, "empty switch overlay rule");
        if (!overlay_.empty()) {
            SwitchRule& prev = overlay_.back();
            PULSE_ASSERT(prev.base + prev.size <= remap.va_base,
                         "overlapping switch overlay rule");
            if (prev.node == remap.node &&
                prev.base + prev.size == remap.va_base) {
                prev.size += remap.length;
                continue;
            }
        }
        overlay_.push_back(
            SwitchRule{remap.va_base, remap.length, remap.node});
    }
}

std::optional<NodeId>
SwitchTable::lookup(VirtAddr va) const
{
    // Overlay rules are carved out of home regions and more specific:
    // they win the match-action lookup.
    if (!overlay_.empty()) {
        auto pos = std::upper_bound(
            overlay_.begin(), overlay_.end(), va,
            [](VirtAddr v, const SwitchRule& r) { return v < r.base; });
        if (pos != overlay_.begin() && (pos - 1)->matches(va)) {
            return (pos - 1)->node;
        }
    }
    for (const SwitchRule& rule : rules_) {
        if (rule.matches(va)) {
            return rule.node;
        }
    }
    return std::nullopt;
}

RouteDecision
SwitchTable::route(const TraversalPacket& packet) const
{
    const bool wants_memory =
        !packet.is_response ||
        (packet.status == isa::TraversalStatus::kNotLocal &&
         packet.allow_switch_continuation);
    if (wants_memory) {
        if (const auto node = lookup(packet.cur_ptr)) {
            return {EndpointAddr::mem_node(*node), false};
        }
        // Invalid pointer: deliver to the origin client as a fault
        // response (the network layer patches the status).
        return {EndpointAddr::client(packet.origin), true};
    }
    return {EndpointAddr::client(packet.origin), false};
}

namespace {

void
checkpoint_rules(StateIo& io, std::vector<SwitchRule>& rules,
                 std::size_t num_nodes)
{
    std::uint64_t count = rules.size();
    io.count(count, 2 * sizeof(std::uint64_t) + sizeof(NodeId));
    rules.resize(count);
    for (SwitchRule& rule : rules) {
        io.u64(rule.base);
        io.u64(rule.size);
        io.u32(rule.node);
        if (rule.node >= num_nodes) {
            io.fail("switch rule names node %u of %zu", rule.node,
                    num_nodes);
        }
    }
}

}  // namespace

void
SwitchTable::checkpoint(StateIo& io, std::size_t num_nodes)
{
    io.tag("SWCH");
    checkpoint_rules(io, rules_, num_nodes);
    checkpoint_rules(io, overlay_, num_nodes);
}

}  // namespace pulse::net
