/**
 * @file
 * Binary search tree in disaggregated memory, in the node layouts of
 * supplementary Table 3's two tree categories. Both offload the same
 * read path — descend comparing the search key while tracking the best
 * lower-bound candidate — so one class builds both:
 *
 *   - kStl: std::map / set / multimap / multiset, whose find() shares
 *     the internal _M_lower_bound loop (supp. Listings 7-8);
 *   - kAvl, kSplay, kScapegoat: the Boost intrusive sets, which share
 *     lower_bound_loop (supp. Listings 9-10). They differ only in the
 *     rebalancing metadata maintained on insertion, which the
 *     read-only evaluation never executes; the node keeps that word
 *     anyway so the layout is faithful.
 *
 * Node layout (64 B); the Boost layouts put an 8-byte metadata word
 * first (AVL balance factor 0 / splay access epoch 1 / scapegoat
 * subtree size) and shift every other field by 8:
 *
 *   field   kStl   Boost
 *   meta    -      u64 @ 0
 *   key     u64 @ 0    u64 @ 8
 *   left    u64 @ 8    u64 @ 16
 *   right   u64 @ 16   u64 @ 24
 *   value   u64 @ 24   u64 @ 32
 *   (padding to 64)
 *
 * The traversal terminates when cur_ptr goes null, which exercises the
 * ISA's null-page LOAD semantics. A final phase revisits the candidate
 * node to return its key and value, so exact-match find() needs no
 * extra client round trip.
 */
#ifndef PULSE_DS_SEARCH_TREE_H
#define PULSE_DS_SEARCH_TREE_H

#include <memory>
#include <optional>
#include <vector>

#include "ds/ds_common.h"
#include "isa/program.h"
#include "mem/allocator.h"
#include "mem/global_memory.h"
#include "offload/offload_engine.h"

namespace pulse::ds {

/** Which library's node layout (and metadata word) the tree models. */
enum class TreeLayout : std::uint8_t { kStl, kAvl, kSplay, kScapegoat };

/** Balanced (build-time) search tree with a lower_bound read path. */
class SearchTree
{
  public:
    static constexpr Bytes kNodeBytes = 64;

    /** Scratch layout. */
    static constexpr std::uint32_t kSpKey = 0;
    static constexpr std::uint32_t kSpCandidate = 8;  ///< y
    static constexpr std::uint32_t kSpPhase = 16;
    static constexpr std::uint32_t kSpFoundKey = 24;
    static constexpr std::uint32_t kSpValue = 32;
    static constexpr std::uint32_t kSpDone = 40;
    static constexpr std::uint32_t kSpBytes = 48;

    SearchTree(mem::GlobalMemory& memory, mem::ClusterAllocator& alloc,
               TreeLayout layout);

    /**
     * Build a balanced tree from strictly-increasing keys; values are
     * derived deterministically (value_pattern_word).
     */
    void build(const std::vector<std::uint64_t>& sorted_keys,
               NodeId node = kInvalidNode);

    std::uint32_t depth() const { return depth_; }

    /**
     * The lower_bound + candidate revisit program, with the branch
     * order of the layout's listing: STL tests "key < search" and
     * jumps right (Listing 8), Boost tests "key >= search" and jumps
     * left (Listing 10).
     */
    std::shared_ptr<const isa::Program> lower_bound_program() const;

    /** Operation: lower_bound(key). */
    offload::Operation make_lower_bound(
        std::uint64_t key, offload::CompletionFn done) const;

    struct LowerBoundResult
    {
        bool found = false;       ///< some key >= search key exists
        std::uint64_t key = 0;    ///< the lower-bound key
        std::uint64_t value = 0;  ///< its value
    };

    static LowerBoundResult parse_lower_bound(
        const offload::Completion& completion);

    /** Host-side reference. */
    std::optional<std::pair<std::uint64_t, std::uint64_t>>
    lower_bound_reference(std::uint64_t key) const;

  private:
    VirtAddr build_subtree(const std::vector<std::uint64_t>& keys,
                           std::size_t lo, std::size_t hi, NodeId node,
                           std::uint32_t level);

    mem::GlobalMemory& memory_;
    mem::ClusterAllocator& alloc_;
    const TreeLayout layout_;
    /** Field offsets: key after the metadata word (if any), then
     *  left, right and value 8 B apart. */
    const std::uint32_t key_off_;
    const std::uint32_t left_off_;
    const std::uint32_t right_off_;
    const std::uint32_t value_off_;
    VirtAddr root_ = kNullAddr;
    std::uint32_t depth_ = 0;
    mutable std::shared_ptr<const isa::Program> program_;
};

}  // namespace pulse::ds

#endif  // PULSE_DS_SEARCH_TREE_H
