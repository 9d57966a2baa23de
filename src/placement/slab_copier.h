/**
 * @file
 * The slab COPY protocol and the route flip, shared by live migration
 * (placement/migration.h) and replica establishment
 * (replication/replication_plane.h). docs/PLACEMENT.md describes both.
 *
 * SlabCopier streams one span at a time from its current owner into
 * backing store reserved on a destination node, in chunks over the
 * simulated network with a selective-repeat window. Each chunk pays
 * DRAM channel occupancy at both ends and link time in between, and is
 * acked by the destination. The fault plane may drop, duplicate,
 * corrupt-deliver or reorder any of it, so unacked chunks retransmit
 * on a timeout, and the copy aborts (freeing the reserved backing)
 * after too many retries. The timed chunks only model the cost: on the
 * last ack the authoritative bytes are copied functionally in one
 * atomic event, so stores racing the copy can never leak stale data.
 *
 * flip_route() moves the routing of a span from one node to another:
 * AddressMap remap first (the authority), then the switch overlay and
 * both TCAMs derived from it, so the route-agreement audit always sees
 * the three in lockstep. Migration cutover and replication failover
 * both call it.
 */
#ifndef PULSE_PLACEMENT_SLAB_COPIER_H
#define PULSE_PLACEMENT_SLAB_COPIER_H

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/stats.h"
#include "mem/allocator.h"
#include "mem/global_memory.h"
#include "mem/memory_channel.h"
#include "mem/range_tcam.h"
#include "net/network.h"
#include "placement/placement_config.h"
#include "sim/event_queue.h"

namespace pulse::placement {

/** Copy-traffic counters; the owning plane exports them. */
struct CopyStats
{
    Counter bytes_copied;          ///< timed copy-phase traffic
    Counter chunks_sent;
    Counter chunks_retransmitted;  ///< losses/timeouts on copy traffic
};

/** Runs one chunked slab copy at a time. */
class SlabCopier
{
  public:
    /** Copy knobs come from @p config (copy_chunk_bytes, copy_window,
     *  copy_rto, copy_max_retries); traffic is counted in @p stats. */
    SlabCopier(sim::EventQueue& queue, net::Network& network,
               mem::GlobalMemory& memory,
               mem::ClusterAllocator& allocator,
               std::vector<mem::ChannelSet*> channels,
               const PlacementConfig& config, CopyStats& stats);

    SlabCopier(const SlabCopier&) = delete;
    SlabCopier& operator=(const SlabCopier&) = delete;

    /** A copy is in flight. */
    bool active() const { return active_.has_value(); }

    /** Source and destination of the copy in flight. */
    NodeId src() const { return active_->src; }
    NodeId dst() const { return active_->dst; }
    /** Length of the copy in flight. */
    Bytes length() const { return active_->length; }

    /**
     * Copy [@p va_base, @p va_base + @p length) from @p src into the
     * backing already reserved at @p dst_phys on @p dst. @p done fires
     * exactly once: true after the functional copy, false after an
     * abort has returned the reserved backing to the allocator. The
     * copier is idle again by the time @p done runs.
     */
    void start(VirtAddr va_base, Bytes length, NodeId src, NodeId dst,
               Bytes dst_phys, std::function<void(bool)> done);

    /** Abort the copy in flight (its @p done fires with false). */
    void abort();

  private:
    struct Active
    {
        VirtAddr va_base = 0;
        Bytes length = 0;
        NodeId src = kInvalidNode;
        NodeId dst = kInvalidNode;
        Bytes dst_phys = 0;
        std::vector<bool> acked;     // per chunk
        std::vector<sim::EventId> rto;  // per chunk: its armed timer
        std::size_t next_unsent = 0; // chunk index
        std::size_t acked_count = 0;
        std::uint32_t retries = 0;
        std::function<void(bool)> done;
    };

    Bytes chunk_length(std::size_t chunk) const;
    void send_chunk(std::size_t chunk, bool retransmit);
    void on_chunk_delivered(std::uint64_t generation, std::size_t chunk);
    void on_ack(std::uint64_t generation, std::size_t chunk);
    void arm_rto(std::size_t chunk);
    /** End the copy in flight: cancel its timers, go idle. */
    Active end_copy();
    void finish();

    sim::EventQueue& queue_;
    net::Network& network_;
    mem::GlobalMemory& memory_;
    mem::ClusterAllocator& allocator_;
    std::vector<mem::ChannelSet*> channels_;
    Bytes chunk_bytes_;
    std::uint32_t window_;
    Time rto_;
    std::uint32_t max_retries_;
    CopyStats& stats_;
    std::optional<Active> active_;
    /** Bumped whenever a copy ends; stale reads/acks from a finished
     *  copy check it and become no-ops. */
    std::uint64_t generation_ = 0;
};

/** Outcome of flip_route(). */
enum class RouteFlip {
    kRefused,   ///< a TCAM could not take the change; nothing moved
    kRemapped,  ///< a remap overlay now routes the span to its new node
    kRehomed,   ///< the span returned to its home frame; overlay cleared
};

/**
 * Both TCAM edits of moving [@p va_base, @p va_base + @p length) from
 * @p from to @p to would succeed: the source entry is punchable and
 * the destination has a free slot (coalescing may make the slot
 * unnecessary, but the check is conservative).
 */
bool route_flip_possible(const std::vector<mem::RangeTcam*>& tcams,
                         NodeId from, NodeId to, VirtAddr va_base,
                         Bytes length);

/**
 * Re-route [@p va_base, @p va_base + @p length) from @p from to @p to,
 * whose copy of the span starts at @p to_phys: install the remap (or
 * clear it when the span lands back in its home frame), rebuild the
 * switch overlay from the AddressMap, punch @p from's TCAM and insert
 * the span into @p to's. Refused, with nothing changed, unless
 * route_flip_possible().
 */
RouteFlip flip_route(mem::AddressMap& map, net::SwitchTable& table,
                     const std::vector<mem::RangeTcam*>& tcams,
                     NodeId from, NodeId to, VirtAddr va_base,
                     Bytes length, Bytes to_phys);

}  // namespace pulse::placement

#endif  // PULSE_PLACEMENT_SLAB_COPIER_H
