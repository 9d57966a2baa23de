#include "serve/qos.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"

namespace pulse::serve {

QosController::QosController(sim::EventQueue& queue,
                             net::PacketArena& packets,
                             const ServeConfig& config)
    : queue_(queue), packets_(packets), config_(config)
{
    // Pre-create state for configured tenants so counter iteration
    // order (and therefore metrics output) is fixed by the config, not
    // by traffic arrival order.
    for (const TenantQos& qos : config_.tenants) {
        state_of(qos.id);
    }
}

void
QosController::attach_node(NodeId node, ReadmitFn readmit)
{
    if (readmit_.size() <= node) {
        readmit_.resize(node + 1);
        queued_.resize(node + 1, {0, 0});
    }
    readmit_[node] = std::move(readmit);
}

QosController::TenantState&
QosController::state_of(TenantId tenant)
{
    auto it = tenants_.find(tenant);
    if (it == tenants_.end()) {
        TenantState state;
        state.qos = config_.qos_of(tenant);
        state.qos.weight = std::max<std::uint32_t>(state.qos.weight, 1);
        state.tokens = state.qos.quota_burst;
        state.last_refill = queue_.now();
        it = tenants_.emplace(tenant, std::move(state)).first;
        counters_.emplace(tenant, TenantCounters{});
    }
    return it->second;
}

void
QosController::refill(TenantState& state, Time now) const
{
    if (state.qos.quota_ops_per_s <= 0.0) {
        return;
    }
    if (now <= state.last_refill) {
        return;
    }
    const double elapsed_s = to_seconds(now - state.last_refill);
    state.tokens = std::min(
        state.qos.quota_burst,
        state.tokens + elapsed_s * state.qos.quota_ops_per_s);
    state.last_refill = now;
}

QosController::Verdict
QosController::charge(NodeId node, net::PacketHandle handle)
{
    net::TraversalPacket& packet = packets_[handle];
    if (!is_fresh_root(packet)) {
        // Continuations, fork children, and responses represent work
        // already admitted: never charged, never rejected.
        return Verdict::kAdmit;
    }
    const TenantId tenant = packet.tenant;
    TenantState& state = state_of(tenant);
    TenantCounters& counters = counters_[tenant];
    if (state.qos.quota_ops_per_s <= 0.0) {
        counters.admitted++;
        stats_.admitted.increment();
        return Verdict::kAdmit;
    }
    refill(state, queue_.now());
    // Packets park behind earlier over-quota arrivals of the same
    // tenant even if a token is free now — releases drain in FIFO
    // order, so admitting around the park queue would reorder.
    if (state.parked.empty() && state.tokens >= 1.0) {
        state.tokens -= 1.0;
        counters.admitted++;
        stats_.admitted.increment();
        return Verdict::kAdmit;
    }
    if (state.parked.size() >= config_.throttle_park_cap) {
        return Verdict::kShed;
    }
    counters.throttled++;
    stats_.quota_throttled.increment();
    // Park timestamp: the accelerator's readmit() span covers the
    // whole wait for quota tokens.
    packet.trace.queued_at = queue_.now();
    state.parked.push_back({node, handle});
    arm_release(tenant, state);
    return Verdict::kThrottle;
}

void
QosController::arm_release(TenantId tenant, TenantState& state)
{
    if (state.release_armed || state.parked.empty()) {
        return;
    }
    // Time until the bucket holds one whole token.
    const double deficit = std::max(0.0, 1.0 - state.tokens);
    const double wait_s = deficit / state.qos.quota_ops_per_s;
    Time delay = static_cast<Time>(std::ceil(wait_s * kSecond));
    delay = std::max<Time>(delay, 1);
    state.release_armed = true;
    queue_.schedule_after(delay,
                          [this, tenant]() { release(tenant); });
}

void
QosController::release(TenantId tenant)
{
    TenantState& state = tenants_.at(tenant);
    state.release_armed = false;
    refill(state, queue_.now());
    TenantCounters& counters = counters_[tenant];
    while (!state.parked.empty() && state.tokens >= 1.0) {
        state.tokens -= 1.0;
        const TenantState::Parked parked = state.parked.front();
        state.parked.pop_front();
        counters.admitted++;
        stats_.admitted.increment();
        PULSE_ASSERT(parked.node < readmit_.size() &&
                         readmit_[parked.node],
                     "no readmit hook for node %u", parked.node);
        readmit_[parked.node](parked.packet);
    }
    arm_release(tenant, state);
}

bool
QosController::may_enqueue(NodeId node,
                           const net::TraversalPacket& packet) const
{
    if (node >= queued_.size()) {
        return true;
    }
    const SloClass slo = class_of(packet.tenant);
    const std::uint32_t depth =
        queued_[node][static_cast<std::size_t>(slo)];
    const std::uint32_t cap = slo == SloClass::kLatencySensitive
                                  ? config_.latency_queue_cap
                                  : config_.batch_queue_cap;
    return depth < cap;
}

void
QosController::note_enqueued(NodeId node, TenantId tenant)
{
    if (node >= queued_.size()) {
        queued_.resize(node + 1, {0, 0});
    }
    queued_[node][static_cast<std::size_t>(class_of(tenant))]++;
}

void
QosController::note_dequeued(NodeId node, TenantId tenant)
{
    PULSE_ASSERT(node < queued_.size(), "dequeue at unknown node %u",
                 node);
    std::uint32_t& depth =
        queued_[node][static_cast<std::size_t>(class_of(tenant))];
    PULSE_ASSERT(depth > 0, "queue depth underflow at node %u", node);
    depth--;
}

void
QosController::note_shed(NodeId node, TenantId tenant)
{
    (void)node;
    counters_[tenant].shed++;
    stats_.shed.increment();
}

std::uint32_t
QosController::weight_of(TenantId tenant) const
{
    const auto it = tenants_.find(tenant);
    if (it != tenants_.end()) {
        return it->second.qos.weight;
    }
    const TenantQos qos = config_.qos_of(tenant);
    return std::max<std::uint32_t>(qos.weight, 1);
}

SloClass
QosController::class_of(TenantId tenant) const
{
    const auto it = tenants_.find(tenant);
    if (it != tenants_.end()) {
        return it->second.qos.slo;
    }
    return config_.qos_of(tenant).slo;
}

std::size_t
QosController::parked() const
{
    std::size_t total = 0;
    for (const auto& [tenant, state] : tenants_) {
        total += state.parked.size();
    }
    return total;
}

void
QosController::register_stats(const std::string& prefix,
                              StatRegistry& registry)
{
    registry.register_counter(prefix + ".admitted", &stats_.admitted);
    registry.register_counter(prefix + ".shed", &stats_.shed);
    registry.register_counter(prefix + ".quota_throttled",
                              &stats_.quota_throttled);
}

}  // namespace pulse::serve
