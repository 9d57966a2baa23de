#include "check/checker.h"

#include <cstdio>
#include <string>

namespace pulse::check {
namespace {

std::string
hex(VirtAddr va)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(va));
    return buf;
}

}  // namespace

Checker::Checker(const CheckConfig& config, sim::EventQueue& queue,
                 net::Network& network,
                 const mem::GlobalMemory& memory,
                 std::uint32_t per_visit_cap, std::uint64_t total_guard)
    : config_(config), queue_(queue), network_(network),
      memory_(memory),
      registry_(config.fail_fast, config.max_diagnostics)
{
    if (config.oracle) {
        oracle_ = std::make_unique<GoldenOracle>(
            memory_, queue_, registry_, per_visit_cap, total_guard);
    }
}

void
Checker::attach_accelerator(accel::Accelerator* accelerator)
{
    accelerators_.push_back(accelerator);
}

void
Checker::attach_engine(offload::OffloadEngine* engine)
{
    engines_.push_back(engine);
}

void
Checker::report(InvariantKind kind, const std::string& component,
                std::string message)
{
    registry_.report(Violation{.kind = kind,
                               .when = queue_.now(),
                               .component = component,
                               .message = std::move(message)});
}

void
Checker::check_route_agreement()
{
    const mem::AddressMap& map = memory_.address_map();
    const net::SwitchTable& table = network_.switch_table();

    // Sample addresses per region plus one just past every region and
    // one below the address space: map, switch and every TCAM must
    // tell one coherent story about each.
    std::vector<VirtAddr> samples;
    for (NodeId node = 0; node < map.num_nodes(); node++) {
        const mem::NodeRegion& region = map.region(node);
        samples.push_back(region.base);
        samples.push_back(region.base + region.size / 2);
        samples.push_back(region.base + region.size - 1);
        samples.push_back(region.base + region.size);
    }
    if (map.num_nodes() > 0 && map.region(0).base > 0) {
        samples.push_back(map.region(0).base - 1);
    }
    // Migration remap overlays: sample each remapped range's edges and
    // interior too — the AddressMap overlay, the switch overlay rule
    // and the two reconfigured TCAMs must agree after every cutover.
    for (const mem::Remap& remap : map.remaps()) {
        samples.push_back(remap.va_base);
        samples.push_back(remap.va_base + remap.length / 2);
        samples.push_back(remap.va_base + remap.length - 1);
        samples.push_back(remap.va_base + remap.length);
        if (remap.va_base > 0) {
            samples.push_back(remap.va_base - 1);
        }
    }

    for (const VirtAddr va : samples) {
        const std::optional<NodeId> owner = map.node_for(va);
        const std::optional<NodeId> routed = table.lookup(va);
        if (owner != routed) {
            report(InvariantKind::kRouteDisagreement, "check.route",
                   "va " + hex(va) + ": AddressMap owner " +
                       (owner ? std::to_string(*owner) : "none") +
                       " != switch rule " +
                       (routed ? std::to_string(*routed) : "none"));
        }
        for (NodeId node = 0; node < accelerators_.size(); node++) {
            const auto result =
                accelerators_[node]->tcam().translate(va,
                                                      mem::Perm::kRead);
            const bool local = owner.has_value() && *owner == node;
            const bool hit =
                result.status == mem::TranslateStatus::kOk;
            if (local != hit) {
                report(InvariantKind::kRouteDisagreement,
                       "check.route",
                       "va " + hex(va) + ": node " +
                           std::to_string(node) + " TCAM " +
                           (hit ? "hits" : "misses") +
                           " but AddressMap says " +
                           (local ? "local" : "remote"));
            }
        }
    }
}

std::uint64_t
Checker::verify_quiesce()
{
    if (!config_.invariants) {
        return registry_.total();
    }
    if (!queue_.empty()) {
        report(InvariantKind::kQueueNotDrained, "sim.event_queue",
               std::to_string(queue_.pending()) +
                   " events still pending at quiesce");
    }
    const net::TraversalFlow& flow = network_.traversal_flow();
    if (!flow.balanced()) {
        report(InvariantKind::kPacketConservation, "net.network",
               "injected=" + std::to_string(flow.injected) +
                   " + duplicated=" + std::to_string(flow.duplicated) +
                   " != delivered=" + std::to_string(flow.delivered) +
                   " + source_dark=" +
                   std::to_string(flow.source_dark) +
                   " + plan_dropped=" +
                   std::to_string(flow.plan_dropped) +
                   " + delivery_blackout=" +
                   std::to_string(flow.delivery_blackout) +
                   " + checksum_dropped=" +
                   std::to_string(flow.checksum_dropped));
    }
    if (network_.packets().live() != 0) {
        report(InvariantKind::kPacketConservation, "net.packet_arena",
               std::to_string(network_.packets().live()) +
                   " packet slots still held at quiesce");
    }
    for (NodeId node = 0; node < accelerators_.size(); node++) {
        const std::size_t inflight = accelerators_[node]->inflight();
        if (inflight != 0) {
            report(InvariantKind::kWorkspaceLeak,
                   "accel.node" + std::to_string(node),
                   std::to_string(inflight) +
                       " requests still occupying workspaces or the "
                       "admission queue at quiesce");
        }
    }
    for (std::size_t client = 0; client < engines_.size(); client++) {
        const std::size_t inflight = engines_[client]->inflight();
        if (inflight != 0) {
            report(InvariantKind::kInflightLeak,
                   "offload.client" + std::to_string(client),
                   std::to_string(inflight) +
                       " operations still armed at quiesce");
        }
    }
    check_route_agreement();
    return registry_.total();
}

}  // namespace pulse::check
