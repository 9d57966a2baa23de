/**
 * @file
 * Configuration for the fault-tolerance plane (src/replication).
 *
 * Two modes (docs/REPLICATION.md):
 *   - factor 1: no plane is constructed; the replication path is a
 *               strict no-op and runs stay bit-identical to a build
 *               without the subsystem (the default).
 *   - factor k (2, 3, ...): every memory node's allocated bytes are
 *               mirrored on k-1 other nodes (COPY to establish, write-
 *               synchronous store/CAS mirroring to maintain), a seeded
 *               heartbeat detector watches every node, and on a
 *               declared death the switch atomically re-routes the dead
 *               node's ranges to a surviving replica.
 */
#ifndef PULSE_REPLICATION_REPLICATION_CONFIG_H
#define PULSE_REPLICATION_REPLICATION_CONFIG_H

#include <cstdint>

#include "common/units.h"

namespace pulse::replication {

/** Fault-tolerance-plane knobs. */
struct ReplicationConfig
{
    /** Copies of every byte (1 = subsystem absent, the default). */
    std::uint32_t replication_factor = 1;

    /** Seed for the plane's private generator (heartbeat jitter). */
    std::uint64_t seed = 0x5eedbeef;

    /**
     * Heartbeat probe period. Every round the detector probes each
     * live node from client 0 through the ordinary message path, so
     * probes experience the same stalls/blackouts traversals do.
     */
    Time heartbeat_interval = micros(20.0);

    /** Probe/ack frame size (NIC-header-sized, like copy acks). */
    Bytes heartbeat_bytes = 64;

    /**
     * Deterministic jitter on each probe period, as a fraction of the
     * interval: de-synchronizes probe rounds from workload periodicity
     * without a shared RNG stream.
     */
    double heartbeat_jitter = 0.1;

    /**
     * Phi-accrual-style suspicion threshold: a node is suspected when
     * (now - last_ack) exceeds this multiple of the smoothed inter-ack
     * interval. Together with min_missed_probes this sets the
     * stall-vs-blackout boundary — a stall shorter than roughly
     * threshold * interval delivers its held acks in time and is never
     * declared dead.
     */
    double suspicion_threshold = 8.0;

    /** Consecutive unacked probes required before declaring death. */
    std::uint32_t min_missed_probes = 4;

    /**
     * Background scan period: uncovered allocation is picked up for
     * replication and lost redundancy is restored. The scan timer
     * self-quiesces when there is no copy work, no unresolved
     * suspicion, and no traffic, so it never keeps the queue alive.
     */
    Time scan_interval = micros(25.0);

    bool enabled() const { return replication_factor > 1; }
};

}  // namespace pulse::replication

#endif  // PULSE_REPLICATION_REPLICATION_CONFIG_H
