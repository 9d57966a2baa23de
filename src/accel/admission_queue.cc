#include "accel/admission_queue.h"

#include <algorithm>

#include "common/logging.h"
#include "serve/qos.h"

namespace pulse::accel {

AdmissionQueue::AdmissionQueue(SchedPolicy policy,
                               const net::PacketArena& packets)
    : policy_(policy), packets_(packets)
{
}

std::uint32_t
AdmissionQueue::flow_key(net::PacketHandle packet) const
{
    return policy_ == SchedPolicy::kWeightedDrr ? packets_[packet].tenant
                                                : packets_[packet].origin;
}

std::uint32_t
AdmissionQueue::quantum_of(std::uint32_t flow) const
{
    if (policy_ == SchedPolicy::kFairShare || qos_ == nullptr) {
        return 1;
    }
    return std::max<std::uint32_t>(qos_->weight_of(flow), 1);
}

void
AdmissionQueue::push(net::PacketHandle packet)
{
    if (policy_ == SchedPolicy::kFifo) {
        fifo_.push_back(packet);
    } else {
        const std::uint32_t flow = flow_key(packet);
        PacketDeque& queue = per_flow_[flow];
        if (queue.empty()) {
            // First queued packet of this flow: join the service
            // ring's tail. A drained flow re-arrives here too — one
            // full rotation behind, never ahead of waiting peers.
            ring_.push_back(flow);
        }
        queue.push_back(packet);
    }
    size_++;
}

net::PacketHandle
AdmissionQueue::pop()
{
    PULSE_ASSERT(size_ > 0, "pop from empty admission queue");
    size_--;
    if (policy_ == SchedPolicy::kFifo) {
        const net::PacketHandle packet = fifo_.front();
        fifo_.pop_front();
        return packet;
    }

    PULSE_ASSERT(!ring_.empty(), "admission ring out of sync");
    const std::uint32_t flow = ring_.front();
    const auto pos = per_flow_.find(flow);
    PULSE_ASSERT(pos != per_flow_.end() && !pos->second.empty(),
                 "admission ring names a drained flow");
    const net::PacketHandle packet = pos->second.front();
    pos->second.pop_front();

    // Deficit round-robin, cost 1 per packet: the flow keeps the front
    // of the ring until its round (quantum = tenant weight; 1 under
    // kFairShare, a strict round-robin) is spent or its queue drains.
    std::uint32_t& deficit = deficit_[flow];
    if (deficit == 0) {
        deficit = quantum_of(flow);
    }
    deficit--;
    if (pos->second.empty()) {
        per_flow_.erase(pos);
        deficit_.erase(flow);
        ring_.pop_front();
    } else if (deficit == 0) {
        ring_.pop_front();
        ring_.push_back(flow);
    }
    return packet;
}

}  // namespace pulse::accel
