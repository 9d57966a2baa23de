/**
 * @file
 * Configuration for the elastic placement plane (src/placement).
 *
 * Three modes (docs/PLACEMENT.md):
 *   - kOff:     no plane is constructed; the placement path is a strict
 *               no-op and runs stay bit-identical to a build without
 *               the subsystem (the default).
 *   - kStatic:  hotness tracking + per-node imbalance metrics only.
 *               Placement never changes, so throughput matches kOff;
 *               this is the "measured but unbalanced" baseline the
 *               migration ablation compares against.
 *   - kElastic: full plane: hotness sampling per epoch, migration
 *               planning whenever the node-load imbalance crosses the
 *               trigger, live slab copies with online switch/TCAM
 *               reconfiguration at cutover.
 */
#ifndef PULSE_PLACEMENT_PLACEMENT_CONFIG_H
#define PULSE_PLACEMENT_PLACEMENT_CONFIG_H

#include <cstdint>

#include "common/units.h"

namespace pulse::placement {

/** How dynamic the data placement is allowed to be. */
enum class PlacementMode {
    kOff,      ///< subsystem absent (default)
    kStatic,   ///< observe hotness/imbalance, never migrate
    kElastic,  ///< migrate hot slabs to rebalance node load
};

/** Human-readable mode name (bench tables). */
inline const char*
placement_mode_name(PlacementMode mode)
{
    switch (mode) {
      case PlacementMode::kOff: return "off";
      case PlacementMode::kStatic: return "static";
      case PlacementMode::kElastic: return "elastic";
    }
    return "?";
}

/** Elastic-placement-plane knobs. */
struct PlacementConfig
{
    PlacementMode mode = PlacementMode::kOff;

    /** Migration granularity; also the hotness-histogram bucket. Must
     *  divide the per-node region size. */
    Bytes slab_bytes = 64 * kKiB;

    /** Sampling epoch: hotness EWMAs fold and the planner runs once
     *  per epoch. The epoch timer self-quiesces when no accesses were
     *  recorded, so it never keeps the event queue alive. Long enough
     *  that a uniform workload's per-node sample (hundreds of ops)
     *  stays well under the trigger — one op lands ~50 KiB on a single
     *  node, so short epochs see pure multinomial noise. */
    Time epoch = micros(100.0);

    /** EWMA smoothing for per-slab hotness across epochs. */
    double ewma_alpha = 0.3;

    /** Plan migrations when max/mean node load exceeds this. */
    double trigger_imbalance = 1.2;

    /** Stop planning once the hottest node's projected load is within
     *  (1 + headroom) of the mean. */
    double target_headroom = 0.05;

    /** Cap on migrations queued by one planning round. */
    std::uint32_t max_migrations_per_epoch = 16;

    // Slab-copy knobs (placement/slab_copier.h). They govern every
    // slab copy — migration and replica establishment alike — and
    // apply whether or not this plane is on.

    /** Copy-phase transfer granularity over the network. */
    Bytes copy_chunk_bytes = 16 * kKiB;

    /** Copy-phase chunks kept in flight (selective repeat window). */
    std::uint32_t copy_window = 4;

    /** Retransmit timeout for an unacked copy chunk (fault plane can
     *  drop/duplicate/reorder the copy traffic like any message).
     *  Generous: a migration source is by definition a congested node,
     *  so its channel queue alone can delay a chunk tens of
     *  microseconds — a tight RTO would retransmit every chunk. */
    Time copy_rto = micros(50.0);

    /** Total chunk retransmissions before the copy aborts and frees
     *  its reserved destination backing. */
    std::uint32_t copy_max_retries = 32;

    bool enabled() const { return mode != PlacementMode::kOff; }
};

}  // namespace pulse::placement

#endif  // PULSE_PLACEMENT_PLACEMENT_CONFIG_H
