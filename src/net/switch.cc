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

bool
SwitchTable::remove_rule(NodeId node)
{
    for (auto it = rules_.begin(); it != rules_.end(); ++it) {
        if (it->node == node) {
            rules_.erase(it);
            return true;
        }
    }
    return false;
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
save_rules(StateWriter& writer, const std::vector<SwitchRule>& rules)
{
    writer.put_u64(rules.size());
    for (const SwitchRule& rule : rules) {
        writer.put_u64(rule.base);
        writer.put_u64(rule.size);
        writer.put_u32(rule.node);
    }
}

std::vector<SwitchRule>
load_rules(StateReader& reader)
{
    std::vector<SwitchRule> rules(reader.get_u64());
    for (SwitchRule& rule : rules) {
        rule.base = reader.get_u64();
        rule.size = reader.get_u64();
        rule.node = reader.get_u32();
    }
    return rules;
}

}  // namespace

void
SwitchTable::save_state(StateWriter& writer) const
{
    writer.put_tag("SWCH");
    save_rules(writer, rules_);
    save_rules(writer, overlay_);
}

void
SwitchTable::load_state(StateReader& reader)
{
    reader.expect_tag("SWCH");
    rules_ = load_rules(reader);
    overlay_ = load_rules(reader);
}

}  // namespace pulse::net
