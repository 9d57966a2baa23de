/**
 * @file
 * Fault-tolerance plane: k-way replication, failure detection, and
 * automatic failover (docs/REPLICATION.md).
 *
 * The plane keeps k copies of every allocated byte:
 *
 *   - **COPY**: a background scan discovers allocation growth per home
 *     node and establishes replicas with the slab copier migration uses
 *     (placement/slab_copier.h: timed chunks + acks over the fabric,
 *     RTO retransmits, abort on a dead link), finishing with one atomic
 *     functional copy so racing stores can never leak stale bytes.
 *   - **DUAL**: once a replica is live it is write-synchronous — every
 *     accelerator store/CAS success is mirrored into the replica
 *     backing (charging the replica node's DRAM channels), and every
 *     replay-window transition (mark, completion, drop) is mirrored
 *     into the other nodes' dedup windows, so exactly-once holds on
 *     whichever replica ends up answering.
 *   - **DETECT**: a seeded heartbeat loop probes every live node
 *     through the ordinary message path and feeds a phi-accrual-style
 *     detector (src/net/heartbeat.h) that distinguishes a stall (late
 *     acks) from a blackout (no acks).
 *   - **FAILOVER**: declaring a node dead re-routes every span it
 *     owned to a surviving replica in one atomic event, via the same
 *     route flip (placement::flip_route) a migration cutover uses, so
 *     the route-agreement audit always holds.
 *   - **RE-REPLICATE**: the scan restores the replication factor on
 *     surviving nodes; notify_recovered() re-admits a healed node.
 *
 * Constructed only when ReplicationConfig::enabled(); a null plane
 * pointer in the accelerator is a strict no-op, keeping
 * PULSE_REPLICATION=off bit-identical to a build without this file.
 */
#ifndef PULSE_REPLICATION_REPLICATION_PLANE_H
#define PULSE_REPLICATION_REPLICATION_PLANE_H

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "accel/replay_window.h"
#include "common/random.h"
#include "common/stats.h"
#include "mem/allocator.h"
#include "mem/global_memory.h"
#include "mem/memory_channel.h"
#include "mem/range_tcam.h"
#include "net/heartbeat.h"
#include "net/network.h"
#include "placement/placement_config.h"
#include "placement/slab_copier.h"
#include "replication/replication_config.h"
#include "sim/event_queue.h"

namespace pulse::replication {

/** Plane statistics (exported under "replication."). */
struct ReplicationStats : placement::CopyStats
{
    Counter replicas_established;   ///< copies that went live
    Counter copies_started;
    Counter copies_aborted;         ///< dead link / dying source
    Counter replica_alloc_failures; ///< no backing on any target
    Counter store_mirrors;          ///< write-synchronous stores
    Counter cas_mirrors;            ///< write-synchronous CAS results
    Counter digest_marks;           ///< replay in-progress mirrored
    Counter digest_completions;     ///< replay responses mirrored
    Counter digest_unmarks;         ///< replay drops mirrored
    Counter heartbeats_sent;
    Counter heartbeat_acks;
    Counter nodes_declared_dead;
    Counter failovers_executed;     ///< one per declared death
    Counter failover_spans_rerouted;
    Counter failover_bytes_rerouted;
    Counter failover_spans_lost;    ///< no live replica / TCAM refusal
    Counter rereplications;         ///< redundancy-restoring copies
    Counter recoveries;             ///< notify_recovered() calls
    Counter cutovers_observed;      ///< migration cutovers seen
};

/** One executed failover, for the availability bench. */
struct FailoverRecord
{
    NodeId node = kInvalidNode;
    Time declared_at = 0;   ///< death declared + routing re-installed
    std::uint64_t spans = 0;
    Bytes bytes = 0;
};

/** The assembled fault-tolerance plane. */
class ReplicationPlane
{
  public:
    /** Replica copies take their knobs from @p copy_config
     *  (copy_chunk_bytes, copy_window, copy_rto, copy_max_retries):
     *  one set governs every slab copy, migration or replica. */
    ReplicationPlane(sim::EventQueue& queue, net::Network& network,
                     mem::GlobalMemory& memory,
                     mem::ClusterAllocator& allocator,
                     std::vector<mem::RangeTcam*> tcams,
                     std::vector<mem::ChannelSet*> channels,
                     const ReplicationConfig& config,
                     const placement::PlacementConfig& copy_config);

    const ReplicationConfig& config() const { return config_; }

    /**
     * Wire up the per-node accelerator dedup windows (indexed by
     * node). Required before traffic: replay-digest mirroring is what
     * makes exactly-once hold across a responder that died rather than
     * cooperatively cut over.
     */
    void attach_replay_windows(
        std::vector<accel::ReplayWindow*> windows);

    // -- accelerator hooks (null plane pointer = strict no-op) --------

    /** Mirror a store applied to @p va into live replicas. */
    void mirror_store(VirtAddr va, const void* data, Bytes len,
                      Time now);

    /** Mirror a successful CAS (@p desired won) at @p va. */
    void mirror_cas(VirtAddr va, std::uint64_t desired, Time now);

    /** A visit began executing on @p from (new there, or re-executed
     *  after a cached zero-progress bounce): mark it in-progress in
     *  every other dedup window, replacing a cached bounce, so a
     *  retransmit answered by a replica is suppressed instead of
     *  re-executed and the visit's response completes every mirror. */
    void mirror_mark(NodeId from,
                     const accel::ReplayWindow::Key& key);

    /** The visit completed on @p from: complete the mirrored entries
     *  so a retransmit replays @p response from any replica. */
    void mirror_response(NodeId from,
                         const accel::ReplayWindow::Key& key,
                         const net::TraversalPacket& response);

    /** The visit was dropped unexecuted on @p from: clear the mirrors
     *  so the retransmit is allowed to run. */
    void mirror_unmark(NodeId from,
                       const accel::ReplayWindow::Key& key);

    /**
     * Workload activity (an operation submission, a mirrored write):
     * re-arms the self-quiescing scan and probe loops. The cluster's
     * submit path calls this so the failure detector is watching
     * whenever operations are in flight — a blackout that starts
     * after traffic went fully idle is only noticed once traffic
     * (and with it, probing) resumes.
     */
    void note_activity();

    // -- nemesis / recovery -------------------------------------------

    /** The node healed (nemesis window ended): resume probing it and
     *  let the scan rebuild redundancy that involves it. */
    void notify_recovered(NodeId node);

    /**
     * A migration cutover moved a span to a new owner (wired through
     * the placement plane's cutover observer). Replica content is
     * VA-indexed and mirrors resolve the owner per write, so no
     * replica data moves — the plane just counts the ownership change
     * and keeps its control loops armed while placement churn is
     * ongoing.
     */
    void notify_cutover();

    // -- introspection ------------------------------------------------

    /** Current phi-accrual suspicion level of @p node (0 when dead). */
    double suspicion(NodeId node) const;

    /** Node was declared dead and has not recovered. */
    bool is_dead(NodeId node) const;

    /** Bytes queued or in flight toward restoring the factor. */
    Bytes rereplication_backlog_bytes() const;

    /** Executed failovers, in order. */
    const std::vector<FailoverRecord>& failovers() const
    {
        return failover_log_;
    }

    /** Last time the plane considered every extent fully replicated
     *  (or, after a failover, re-routed) — the "restored" timestamp
     *  the availability bench reports. */
    Time last_restore_time() const { return last_restore_time_; }

    /** A replica copy is running or copies are queued. */
    bool busy() const
    {
        return copier_.active() || !pending_.empty();
    }

    const ReplicationStats& stats() const { return stats_; }
    void reset_stats() { stats_ = ReplicationStats{}; }
    void register_stats(const std::string& prefix,
                        StatRegistry& registry);

  private:
    /** One live or in-flight copy of an extent. */
    struct Replica
    {
        NodeId node = kInvalidNode;
        Bytes phys = 0;
        bool live = false;
        /** Backing allocation failed; retried after topology changes. */
        bool abandoned = false;
    };

    /** A contiguous slice of one home region, replicated as a unit. */
    struct Extent
    {
        NodeId home = kInvalidNode;
        VirtAddr va_base = 0;
        Bytes length = 0;
        /** A replica has gone live at least once: later copies of this
         *  extent are redundancy restoration, not establishment. */
        bool established_once = false;
        std::vector<Replica> replicas;
    };

    // control loops
    void arm_scan();
    void on_scan();
    void grow_extents();
    void plan_replication();
    void pump();
    void arm_probe();
    void on_probe_round();

    // replica copy outcome (the copier's done callback)
    void on_copy_done(std::size_t index, NodeId target, bool copied);

    // failover
    void execute_failover(NodeId dead);
    std::vector<std::pair<VirtAddr, Bytes>> spans_owned_by(
        const Extent& extent, NodeId owner) const;

    Replica* live_replica(Extent& extent, NodeId excluding);
    Extent* extent_containing(VirtAddr va);

    sim::EventQueue& queue_;
    net::Network& network_;
    mem::GlobalMemory& memory_;
    mem::ClusterAllocator& allocator_;
    std::vector<mem::RangeTcam*> tcams_;
    std::vector<mem::ChannelSet*> channels_;
    ReplicationConfig config_;
    Rng rng_;
    net::HeartbeatDetector detector_;
    std::vector<accel::ReplayWindow*> replay_windows_;

    std::vector<Extent> extents_;
    /** Covered bytes per home (prefix of the region, extent-summed). */
    std::vector<Bytes> covered_;
    /** Queued copies: (extent index, target node). */
    std::deque<std::pair<std::size_t, NodeId>> pending_;

    bool scan_armed_ = false;
    bool probe_armed_ = false;
    bool scan_saw_traffic_ = false;
    bool probe_saw_traffic_ = false;

    std::vector<FailoverRecord> failover_log_;
    Time last_restore_time_ = 0;
    ReplicationStats stats_;
    placement::SlabCopier copier_;
};

}  // namespace pulse::replication

#endif  // PULSE_REPLICATION_REPLICATION_PLANE_H
