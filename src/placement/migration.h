/**
 * @file
 * Live slab migration between memory nodes (docs/PLACEMENT.md).
 *
 * One migration at a time runs the protocol
 *
 *   PLAN -> COPY -> DUAL -> CUTOVER -> RETIRE
 *
 * PLAN reserves destination backing from the allocator's free list /
 * bump frontier and pre-checks both TCAMs (source punchable, room at
 * the destination). COPY is the shared chunked copy protocol
 * (placement/slab_copier.h); an abort frees the reserved backing.
 * CUTOVER is a single atomic event: the copier's functional copy
 * lands the authoritative bytes, flip_route() moves the AddressMap
 * remap, switch overlay and both TCAM entries together, and the
 * vacated source backing returns to the allocator. A TCAM that changed
 * during the copy can refuse the flip; the migration then aborts like
 * a failed copy, and the source keeps the slab. DUAL is the window
 * where traversals that loaded before cutover store after it: the
 * source TCAM now misses, and the accelerator forwards the write to
 * the new owner through the placement plane instead of faulting.
 * RETIRE is implicit: overlays persist until a later migration
 * supersedes them.
 */
#ifndef PULSE_PLACEMENT_MIGRATION_H
#define PULSE_PLACEMENT_MIGRATION_H

#include <functional>
#include <vector>

#include "common/stats.h"
#include "mem/allocator.h"
#include "mem/global_memory.h"
#include "mem/memory_channel.h"
#include "mem/range_tcam.h"
#include "net/network.h"
#include "placement/placement_config.h"
#include "placement/slab_copier.h"
#include "sim/event_queue.h"

namespace pulse::placement {

/** Migration-engine statistics (exported under "placement."). */
struct MigrationStats : CopyStats
{
    Counter started;
    Counter completed;
    Counter aborted;
    Counter remaps_installed;      ///< cutovers that left an overlay
};

/** Executes one live slab migration at a time. */
class MigrationEngine
{
  public:
    MigrationEngine(sim::EventQueue& queue, net::Network& network,
                    mem::GlobalMemory& memory,
                    mem::ClusterAllocator& allocator,
                    std::vector<mem::RangeTcam*> tcams,
                    std::vector<mem::ChannelSet*> channels,
                    const PlacementConfig& config);

    /** A migration is currently in its copy phase. */
    bool active() const { return copier_.active(); }

    /**
     * Begin migrating [@p va_base, @p va_base + @p length) to
     * @p dst. Returns false (synchronously, nothing changed) when the
     * span is not contiguously placed on a single other node, is not
     * fully backed (a span in its home frame must lie below the node's
     * application frontier: backing reserved for other slabs can sit
     * past it inside the same frame), either TCAM would refuse the
     * cutover, or the destination is out of memory. @p on_done fires exactly once with
     * success after cutover or failure after an abort: a failed copy,
     * or a cutover whose route flip a TCAM refused because it changed
     * during the copy.
     */
    bool start(VirtAddr va_base, Bytes length, NodeId dst,
               std::function<void(bool)> on_done);

    const MigrationStats& stats() const { return stats_; }
    void reset_stats() { stats_ = MigrationStats{}; }

    /**
     * Invoked inside the cutover event, after routing flips, with the
     * (src, dst) nodes. The placement plane uses it to hand the source
     * accelerator's replay-window digest to the destination — the
     * exactly-once domain moves with the data — and tells the
     * replication plane (when present) that ownership changed.
     */
    void set_cutover_listener(std::function<void(NodeId, NodeId)> fn)
    {
        on_cutover_ = std::move(fn);
    }

  private:
    /** Flip routing to the copy at @p dst and retire the source
     *  backing. False, with the destination backing freed and nothing
     *  else changed, when a TCAM refuses the flip. */
    bool cutover(VirtAddr va_base, Bytes length, NodeId src,
                 Bytes src_phys, NodeId dst, Bytes dst_phys);

    net::Network& network_;
    mem::GlobalMemory& memory_;
    mem::ClusterAllocator& allocator_;
    std::vector<mem::RangeTcam*> tcams_;
    std::function<void(NodeId, NodeId)> on_cutover_;
    MigrationStats stats_;
    SlabCopier copier_;
};

}  // namespace pulse::placement

#endif  // PULSE_PLACEMENT_MIGRATION_H
