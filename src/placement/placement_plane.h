/**
 * @file
 * Elastic placement plane façade (docs/PLACEMENT.md).
 *
 * Owns the hotness tracker and migration engine and runs the control
 * loop: accelerators report translated loads (SAMPLE); a self-arming
 * epoch timer folds the hotness EWMAs and, in elastic mode, plans
 * migrations whenever the per-node load imbalance crosses the trigger
 * (PLAN); planned migrations run one at a time through the engine
 * (COPY/DUAL/CUTOVER/RETIRE). The epoch timer quiesces when an epoch
 * saw no traffic and nothing is queued, so the plane never keeps the
 * event queue alive after a workload drains; the next recorded access
 * re-arms it.
 *
 * The plane is also the dual-residency store path: an accelerator
 * whose TCAM misses on a store/CAS (its entry was punched by a cutover
 * racing the traversal) hands the write here, and it is applied at the
 * current owner through the placement-aware GlobalMemory — in-flight
 * traversals never fault and never write stale bytes because of a
 * migration.
 */
#ifndef PULSE_PLACEMENT_PLACEMENT_PLANE_H
#define PULSE_PLACEMENT_PLACEMENT_PLANE_H

#include <deque>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "accel/replay_window.h"
#include "common/stats.h"
#include "placement/hotness.h"
#include "placement/migration.h"
#include "placement/placement_config.h"

namespace pulse::placement {

/** Control-loop statistics (exported under "placement."). */
struct PlacementStats
{
    Counter accesses_sampled;  ///< loads reported by accelerators
    Counter epochs;            ///< hotness epochs rolled
    Counter plans;             ///< planning rounds that queued work
    Counter migrations_queued;
    Counter store_forwards;    ///< dual-residency writes applied
    Counter cas_forwards;      ///< dual-residency CAS applied
    Counter replay_entries_handed_off;  ///< dedup state moved at cutover
    Counter completions_mirrored;  ///< handed-off visits updated later
};

/** The assembled placement plane. */
class PlacementPlane
{
  public:
    PlacementPlane(sim::EventQueue& queue, net::Network& network,
                   mem::GlobalMemory& memory,
                   mem::ClusterAllocator& allocator,
                   std::vector<mem::RangeTcam*> tcams,
                   std::vector<mem::ChannelSet*> channels,
                   const PlacementConfig& config);

    const PlacementConfig& config() const { return config_; }

    /**
     * Wire up the per-node accelerator dedup windows (indexed by
     * node). At every migration cutover the destination window absorbs
     * the source's entries, so the exactly-once guarantee survives the
     * responder change: a retransmitted request that chases the
     * migrated slab to its new owner replays the cached response
     * instead of re-executing a store/CAS.
     */
    void attach_replay_windows(
        std::vector<accel::ReplayWindow*> windows);

    /**
     * Observe every migration cutover: fires inside the cutover event,
     * after routing flips and the digest handoff. The cluster wires
     * the replication plane in here so it notes ownership changes.
     */
    void set_cutover_observer(std::function<void()> fn)
    {
        cutover_observer_ = std::move(fn);
    }

    /**
     * A visit absorbed at a cutover while still executing on @p from
     * just completed there; record @p response in every other window
     * holding the absorbed in-progress copy.
     */
    void mirror_completion(NodeId from,
                           const accel::ReplayWindow::Key& key,
                           const net::TraversalPacket& response);

    /**
     * Counterpart for a handed-off visit that was dropped from
     * @p from's admission queue without executing: clear the absorbed
     * copies so the retransmit is allowed to run.
     */
    void mirror_unmark(NodeId from,
                       const accel::ReplayWindow::Key& key);

    /** SAMPLE: an accelerator translated a @p bytes load at @p va. */
    void record_access(VirtAddr va, Bytes bytes);

    /**
     * DUAL: apply a store whose source-TCAM translation missed because
     * the slab migrated mid-traversal. Returns false when @p va does
     * not actually live on another node (a genuine fault).
     */
    bool try_forward_store(NodeId at, VirtAddr va, const void* data,
                           Bytes len, Time now);

    /**
     * DUAL: compare-and-swap variant. nullopt when @p va is not owned
     * elsewhere (genuine fault); otherwise the swap outcome.
     */
    std::optional<bool> try_forward_cas(NodeId at, VirtAddr va,
                                        std::uint64_t expected,
                                        std::uint64_t desired, Time now);

    /** Current smoothed node-load imbalance (max/mean; 1.0 idle). */
    double imbalance() const { return hotness_.imbalance(); }

    /** Smoothed per-node loads (EWMA bytes/epoch). */
    std::vector<double> node_loads() const
    {
        return hotness_.node_loads();
    }

    const PlacementStats& stats() const { return stats_; }
    const MigrationStats& migration_stats() const
    {
        return engine_.stats();
    }

    /** A migration is copying or migrations are queued. */
    bool busy() const
    {
        return engine_.active() || !pending_.empty();
    }

    void reset_stats();
    void register_stats(const std::string& prefix,
                        StatRegistry& registry);

  private:
    void arm_epoch();
    void on_epoch();
    void plan();
    void pump();

    sim::EventQueue& queue_;
    mem::GlobalMemory& memory_;
    std::vector<mem::ChannelSet*> channels_;
    PlacementConfig config_;
    HotnessTracker hotness_;
    MigrationEngine engine_;
    std::vector<accel::ReplayWindow*> replay_windows_;
    std::function<void()> cutover_observer_;
    std::deque<std::pair<VirtAddr, NodeId>> pending_;
    bool epoch_armed_ = false;
    PlacementStats stats_;
};

}  // namespace pulse::placement

#endif  // PULSE_PLACEMENT_PLACEMENT_PLANE_H
