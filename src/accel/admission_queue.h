/**
 * @file
 * Policy-driven admission queue for the accelerator scheduler.
 *
 * The paper's scheduler admits pending traversal requests in FIFO
 * order; its supplementary material (section B) proposes extending the
 * signal-driven scheduler with fairness/isolation policies for
 * multi-tenant memory nodes. This queue implements three policies:
 * kFifo (arrival order), kFairShare (round-robin across origin
 * clients, so one client's flood cannot starve another's requests),
 * and kWeightedDrr (weighted deficit round-robin across tenants, the
 * serving plane's QoS scheduler — see src/serve).
 *
 * The non-FIFO policies share one mechanism: per-flow FIFOs plus an
 * explicit service ring of flows with queued work. A flow joins the
 * ring's *tail* when its first packet arrives and leaves when it
 * drains, so a flow that drains and re-arrives deterministically waits
 * one full rotation — the cursor-based round-robin this replaces could
 * re-serve such a flow immediately (its key sat just after the cursor),
 * letting a fast re-arriving client starve slower peers of their turn.
 */
#ifndef PULSE_ACCEL_ADMISSION_QUEUE_H
#define PULSE_ACCEL_ADMISSION_QUEUE_H

#include <deque>
#include <map>

#include "accel/accel_config.h"
#include "common/pool_allocator.h"
#include "net/packet_arena.h"

namespace pulse::serve {
class QosController;
}

namespace pulse::accel {

/**
 * Bounded, policy-driven request queue. It holds packet handles and
 * reads each packet's flow key through the arena the packets live in.
 */
class AdmissionQueue
{
  public:
    AdmissionQueue(SchedPolicy policy, const net::PacketArena& packets);

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /**
     * Attach the serving plane's QoS controller (nullptr detaches):
     * supplies per-tenant weights for kWeightedDrr. Without one every
     * tenant weighs 1.
     */
    void set_qos(const serve::QosController* qos) { qos_ = qos; }

    /** Enqueue a request (caller enforces the capacity bound); the
     *  queue holds the handle until pop() hands it back. */
    void push(net::PacketHandle packet);

    /** Dequeue the next request per the policy. empty() must be
     *  false. */
    net::PacketHandle pop();

    /** Heap blocks the backing pools had to allocate (bench_wallclock
     *  attribution: steady state should add ~none). */
    std::uint64_t
    pool_fresh() const
    {
        std::uint64_t fresh = fifo_.get_allocator().state()->fresh() +
                              per_flow_.get_allocator().state()->fresh();
        for (const auto& [flow, fifo] : per_flow_) {
            fresh += fifo.get_allocator().state()->fresh();
        }
        return fresh;
    }

    /** Heap blocks recycled from the pools instead of the heap. */
    std::uint64_t
    pool_reused() const
    {
        std::uint64_t reused =
            fifo_.get_allocator().state()->reused() +
            per_flow_.get_allocator().state()->reused();
        for (const auto& [flow, fifo] : per_flow_) {
            reused += fifo.get_allocator().state()->reused();
        }
        return reused;
    }

  private:
    /** Per-flow FIFOs churn as flows drain and re-arrive; the pools
     *  recycle their blocks. */
    using PacketDeque =
        std::deque<net::PacketHandle, PoolAllocator<net::PacketHandle>>;

    /** The scheduling key: origin client (kFairShare) or tenant
     *  (kWeightedDrr). */
    std::uint32_t flow_key(net::PacketHandle packet) const;

    /** WDRR quantum of @p flow (its tenant weight; 1 without QoS). */
    std::uint32_t quantum_of(std::uint32_t flow) const;

    SchedPolicy policy_;
    const net::PacketArena& packets_;
    std::size_t size_ = 0;
    PacketDeque fifo_;
    /** Non-FIFO policies: one FIFO per flow. */
    std::map<std::uint32_t, PacketDeque, std::less<std::uint32_t>,
             PoolAllocator<std::pair<const std::uint32_t, PacketDeque>>>
        per_flow_;
    /** Flows with queued work, in service order (see file comment). */
    std::deque<std::uint32_t> ring_;
    /** kWeightedDrr: remaining deficit of each flow's current round.
     *  Erased with the flow, so re-arrival starts a fresh round. */
    std::map<std::uint32_t, std::uint32_t> deficit_;
    const serve::QosController* qos_ = nullptr;
};

}  // namespace pulse::accel

#endif  // PULSE_ACCEL_ADMISSION_QUEUE_H
