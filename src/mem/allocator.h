/**
 * @file
 * Disaggregated-memory allocator with the two placement policies the
 * paper evaluates (supplementary Fig. 2).
 *
 * The paper does not innovate on allocation (section 2.2): it uses
 * glibc-style load-balanced allocation across nodes, and additionally
 * evaluates an application-directed *partitioned* policy that keeps
 * logically-adjacent data (e.g. half a B+Tree) on one node. We provide
 * both:
 *   - kUniform: each allocation picks a node uniformly at random.
 *   - kPartitioned: the caller pins each allocation to an explicit node
 *     (data-structure builders derive the node from keys/subtrees).
 *
 * Within a node this is a bump allocator with alignment; the evaluation
 * never frees mid-run (builders populate once, then the workload is
 * read-mostly), matching the paper's setup. The one exception is live
 * migration: the placement plane reserves backing store for a slab's
 * new home with alloc_backing and returns the vacated range with
 * free_backing, so repeated rebalancing reuses addresses instead of
 * leaking the old ranges.
 */
#ifndef PULSE_MEM_ALLOCATOR_H
#define PULSE_MEM_ALLOCATOR_H

#include <vector>

#include "common/random.h"
#include "common/serial.h"
#include "mem/address_map.h"

namespace pulse::mem {

/** Placement policy across memory nodes. */
enum class AllocPolicy {
    kUniform,      ///< glibc-like: uniform-random node per allocation
    kPartitioned,  ///< application-directed: caller chooses the node
};

/** Bump allocator over the cluster VA space. */
class ClusterAllocator
{
  public:
    /**
     * Create an allocator over @p map using @p policy. @p seed controls
     * the uniform policy's node choice.
     *
     * @param uniform_chunk_bytes arena granularity of the uniform
     *        policy: allocations fill a slab on one random node before
     *        a new random node is drawn (glibc-arena-like locality).
     *        0 draws a fresh random node per allocation — the fully
     *        "random" policy of the paper's supplementary Fig. 2.
     */
    ClusterAllocator(const AddressMap& map, AllocPolicy policy,
                     std::uint64_t seed = 1,
                     Bytes uniform_chunk_bytes = 0);

    /** Active policy. */
    AllocPolicy policy() const { return policy_; }

    /**
     * Allocate @p size bytes, aligned to @p align. Under kPartitioned
     * this round-robins nodes (callers who care use alloc_on); under
     * kUniform it picks a random node. Returns kNullAddr when every
     * node is exhausted.
     */
    VirtAddr alloc(Bytes size, Bytes align = 8);

    /** Allocate @p size bytes on a specific node. */
    VirtAddr alloc_on(NodeId node, Bytes size, Bytes align = 8);

    /** Bytes allocated so far on @p node (application data plus any
     *  backing store taken from the bump frontier). */
    Bytes allocated_on(NodeId node) const;

    /**
     * Frontier of *application* allocation on @p node: the highest
     * offset reached by alloc/alloc_on, excluding backing-store
     * reservations (alloc_backing). Planes that treat a node's
     * allocation prefix as traversable application data (replication)
     * must use this, not allocated_on — backing store holds byte
     * copies of data homed elsewhere and must never be re-replicated.
     */
    Bytes app_allocated_on(NodeId node) const;

    /** Total bytes allocated. */
    Bytes total_allocated() const;

    /** Remaining capacity on @p node. */
    Bytes free_on(NodeId node) const;

    /**
     * Reserve @p size bytes of node-local backing store on @p node for
     * a migrated slab. Prefers ranges recycled by free_backing (first
     * fit) and falls back to the bump frontier. Returns the node-local
     * physical offset, or kNullAddr-equivalent failure as
     * @c Bytes(-1) when the node is exhausted.
     */
    static constexpr Bytes kNoBacking = static_cast<Bytes>(-1);
    Bytes alloc_backing(NodeId node, Bytes size, Bytes align = 8);

    /**
     * Return a backing range reserved by alloc_backing (or vacated by
     * migrating a slab off @p node) to the node's free list, merging
     * with adjacent free ranges so the space is reusable at full size.
     */
    void free_backing(NodeId node, Bytes offset, Bytes size);

    /** Total bytes currently sitting in @p node's free list. */
    Bytes free_list_bytes(NodeId node) const;

    /** Checkpoint support (core/checkpoint.cc). */
    void checkpoint(StateIo& io);

  private:
    /** One reusable hole in a node's backing store. */
    struct FreeRange
    {
        Bytes offset = 0;
        Bytes size = 0;
    };

    const AddressMap& map_;
    AllocPolicy policy_;
    Rng rng_;
    Bytes chunk_bytes_;
    std::vector<Bytes> bump_;  // next free offset per node
    std::vector<Bytes> app_high_;  // frontier sans backing store
    std::vector<std::vector<FreeRange>> free_lists_;  // sorted by offset
    NodeId round_robin_ = 0;
    VirtAddr chunk_next_ = kNullAddr;  // uniform-policy slab cursor
    VirtAddr chunk_end_ = kNullAddr;
};

}  // namespace pulse::mem

#endif  // PULSE_MEM_ALLOCATOR_H
