/**
 * @file
 * QoS admission control at the accelerator entry (serving plane).
 *
 * One QosController per cluster enforces the ServeConfig contracts at
 * every memory node's admission point:
 *
 *   - token-bucket traversal quotas: each *fresh root* request (not a
 *     continuation, not a fork child — work already admitted is never
 *     killed mid-flight) charges its tenant's bucket. An over-quota
 *     request is parked and re-injected when the bucket refills
 *     (throttling); past the park cap it is shed instead;
 *   - per-class queue-depth caps: a request that would have to wait in
 *     the admission queue is shed with a typed kRejected response when
 *     its SLO class's queue at that node is full — latency-sensitive
 *     tenants get a short queue (bounded queueing delay), batch
 *     tenants a deep one;
 *   - WDRR weights for the admission queue (accel::SchedPolicy::
 *     kWeightedDrr keys service by packet.tenant and asks this
 *     controller for the weights).
 *
 * All decisions are deterministic functions of (config, packet,
 * simulated time): no randomness, no wall clock, so serving-on runs
 * are exactly reproducible and checkpoint-compatible.
 */
#ifndef PULSE_SERVE_QOS_H
#define PULSE_SERVE_QOS_H

#include <array>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/stats.h"
#include "net/packet.h"
#include "net/packet_arena.h"
#include "serve/serve_config.h"
#include "sim/event_queue.h"

namespace pulse::serve {

/** Aggregate admission counters (registered as serve.* when on). */
struct QosStats
{
    Counter admitted;         ///< fresh roots past quota + caps
    Counter shed;             ///< typed kRejected rejections
    Counter quota_throttled;  ///< fresh roots parked for bucket refill
};

/** Cluster-wide QoS admission controller. */
class QosController
{
  public:
    /** The accelerator's re-entry point for released packets. */
    using ReadmitFn = std::function<void(net::PacketHandle)>;

    /** @p packets is the cluster's packet arena: charged packets are
     *  read, and throttled ones parked, by handle. */
    QosController(sim::EventQueue& queue, net::PacketArena& packets,
                  const ServeConfig& config);

    /** What the admission point must do with a charged packet. */
    enum class Verdict : std::uint8_t {
        kAdmit,     ///< proceed to dispatch/queueing
        kThrottle,  ///< controller took the handle and parked it
        kShed,      ///< reject with a typed kRejected response
    };

    /**
     * Register node @p node's re-entry point (called once per
     * accelerator at wiring time). Released packets skip the already-
     * paid net-stack/scheduler delays and re-enter at placement.
     */
    void attach_node(NodeId node, ReadmitFn readmit);

    /**
     * Charge the packet in @p handle against its tenant's traversal
     * quota at node @p node. Only fresh roots are charged; everything
     * else admits unconditionally. On kThrottle the controller owns
     * the handle: it sits in the tenant's park queue and re-enters via
     * the node's ReadmitFn when the bucket refills — the caller must
     * stop processing it.
     */
    Verdict charge(NodeId node, net::PacketHandle handle);

    /**
     * Queue-depth cap check for @p packet joining node @p node's
     * admission queue. False means the caller must shed.
     */
    bool may_enqueue(NodeId node,
                     const net::TraversalPacket& packet) const;

    /** Track admission-queue depth per (node, SLO class). */
    void note_enqueued(NodeId node, TenantId tenant);
    void note_dequeued(NodeId node, TenantId tenant);

    /** Count one shed (the accelerator calls this on every shed). */
    void note_shed(NodeId node, TenantId tenant);

    /** WDRR weight of @p tenant (>= 1). */
    std::uint32_t weight_of(TenantId tenant) const;

    /** SLO class of @p tenant. */
    SloClass class_of(TenantId tenant) const;

    const ServeConfig& config() const { return config_; }
    const QosStats& stats() const { return stats_; }

    /** Per-tenant admission counters (deterministic iteration). */
    struct TenantCounters
    {
        std::uint64_t admitted = 0;
        std::uint64_t shed = 0;
        std::uint64_t throttled = 0;
    };

    const std::map<TenantId, TenantCounters>&
    tenant_counters() const
    {
        return counters_;
    }

    /** Packets currently parked awaiting bucket refill. */
    std::size_t parked() const;

    /** Register the aggregate counters under @p prefix. */
    void register_stats(const std::string& prefix,
                        StatRegistry& registry);

  private:
    /** Runtime token bucket + park queue of one tenant. */
    struct TenantState
    {
        TenantQos qos;
        double tokens = 0.0;
        Time last_refill = 0;
        bool release_armed = false;
        struct Parked
        {
            NodeId node = 0;
            net::PacketHandle packet;
        };
        std::deque<Parked> parked;
    };

    /** Fresh root = not a response/continuation, no executed
     *  iterations, no fork lineage: the only packets quota charges. */
    static bool
    is_fresh_root(const net::TraversalPacket& packet)
    {
        return !packet.is_response && packet.iterations_done == 0 &&
               packet.parent_id.seq == 0;
    }

    TenantState& state_of(TenantId tenant);
    void refill(TenantState& state, Time now) const;
    void arm_release(TenantId tenant, TenantState& state);
    void release(TenantId tenant);

    sim::EventQueue& queue_;
    net::PacketArena& packets_;
    ServeConfig config_;
    std::map<TenantId, TenantState> tenants_;
    std::map<TenantId, TenantCounters> counters_;
    std::vector<ReadmitFn> readmit_;  ///< by node id
    /** Queued-request depth per node, per SLO class. */
    std::vector<std::array<std::uint32_t, 2>> queued_;
    QosStats stats_;
};

}  // namespace pulse::serve

#endif  // PULSE_SERVE_QOS_H
