#include "mem/allocator.h"

#include <algorithm>

#include "common/logging.h"

namespace pulse::mem {
namespace {

Bytes
align_up(Bytes value, Bytes align)
{
    PULSE_ASSERT(align > 0 && (align & (align - 1)) == 0,
                 "alignment must be a power of two");
    return (value + align - 1) & ~(align - 1);
}

}  // namespace

ClusterAllocator::ClusterAllocator(const AddressMap& map,
                                   AllocPolicy policy,
                                   std::uint64_t seed,
                                   Bytes uniform_chunk_bytes)
    : map_(map), policy_(policy), rng_(seed),
      chunk_bytes_(uniform_chunk_bytes), bump_(map.num_nodes(), 0),
      app_high_(map.num_nodes(), 0), free_lists_(map.num_nodes())
{
}

VirtAddr
ClusterAllocator::alloc(Bytes size, Bytes align)
{
    const std::uint32_t n = map_.num_nodes();

    // Slab-granular uniform placement: fill the current slab, then
    // draw a fresh random node for the next one.
    if (policy_ == AllocPolicy::kUniform && chunk_bytes_ > 0 &&
        size <= chunk_bytes_) {
        const VirtAddr aligned = (chunk_next_ + align - 1) &
                                 ~(static_cast<VirtAddr>(align) - 1);
        if (chunk_next_ != kNullAddr && aligned + size <= chunk_end_) {
            chunk_next_ = aligned + size;
            return aligned;
        }
        for (std::uint32_t i = 0; i < n; i++) {
            const NodeId node = static_cast<NodeId>(
                (rng_.next_below(n) + i) % n);
            const VirtAddr base =
                alloc_on(node, chunk_bytes_, align);
            if (base != kNullAddr) {
                chunk_next_ = base + size;
                chunk_end_ = base + chunk_bytes_;
                return base;
            }
        }
        return kNullAddr;
    }

    NodeId first;
    if (policy_ == AllocPolicy::kUniform) {
        first = static_cast<NodeId>(rng_.next_below(n));
    } else {
        first = round_robin_;
        round_robin_ = (round_robin_ + 1) % n;
    }
    // Fall over to subsequent nodes if the chosen one is full.
    for (std::uint32_t i = 0; i < n; i++) {
        const NodeId node = (first + i) % n;
        const VirtAddr va = alloc_on(node, size, align);
        if (va != kNullAddr) {
            return va;
        }
    }
    return kNullAddr;
}

VirtAddr
ClusterAllocator::alloc_on(NodeId node, Bytes size, Bytes align)
{
    PULSE_ASSERT(node < bump_.size(), "bad node id %u", node);
    PULSE_ASSERT(size > 0, "zero-size allocation");
    const Bytes start = align_up(bump_[node], align);
    if (start + size > map_.region_size()) {
        return kNullAddr;
    }
    bump_[node] = start + size;
    app_high_[node] = bump_[node];
    return map_.region(node).base + start;
}

Bytes
ClusterAllocator::allocated_on(NodeId node) const
{
    PULSE_ASSERT(node < bump_.size(), "bad node id %u", node);
    return bump_[node];
}

Bytes
ClusterAllocator::app_allocated_on(NodeId node) const
{
    PULSE_ASSERT(node < app_high_.size(), "bad node id %u", node);
    return app_high_[node];
}

Bytes
ClusterAllocator::total_allocated() const
{
    Bytes total = 0;
    for (const Bytes b : bump_) {
        total += b;
    }
    return total;
}

Bytes
ClusterAllocator::free_on(NodeId node) const
{
    PULSE_ASSERT(node < bump_.size(), "bad node id %u", node);
    return map_.region_size() - bump_[node];
}

Bytes
ClusterAllocator::alloc_backing(NodeId node, Bytes size, Bytes align)
{
    PULSE_ASSERT(node < bump_.size(), "bad node id %u", node);
    PULSE_ASSERT(size > 0, "zero-size backing allocation");
    // First fit in the recycled ranges.
    auto& holes = free_lists_[node];
    for (auto it = holes.begin(); it != holes.end(); ++it) {
        const Bytes start = align_up(it->offset, align);
        const Bytes waste = start - it->offset;
        if (waste + size > it->size) {
            continue;
        }
        const Bytes tail = it->size - waste - size;
        if (waste == 0 && tail == 0) {
            holes.erase(it);
        } else if (waste == 0) {
            it->offset = start + size;
            it->size = tail;
        } else if (tail == 0) {
            it->size = waste;
        } else {
            const Bytes tail_offset = start + size;
            it->size = waste;
            holes.insert(it + 1, FreeRange{tail_offset, tail});
        }
        return start;
    }
    // Fall back to the bump frontier.
    const Bytes start = align_up(bump_[node], align);
    if (start + size > map_.region_size()) {
        return kNoBacking;
    }
    bump_[node] = start + size;
    return start;
}

void
ClusterAllocator::free_backing(NodeId node, Bytes offset, Bytes size)
{
    PULSE_ASSERT(node < bump_.size(), "bad node id %u", node);
    PULSE_ASSERT(size > 0, "zero-size backing free");
    PULSE_ASSERT(offset + size <= bump_[node],
                 "freeing past the bump frontier");
    auto& holes = free_lists_[node];
    auto pos = std::lower_bound(
        holes.begin(), holes.end(), offset,
        [](const FreeRange& r, Bytes o) { return r.offset < o; });
    PULSE_ASSERT(pos == holes.end() || offset + size <= pos->offset,
                 "double free of backing range");
    PULSE_ASSERT(pos == holes.begin() ||
                     (pos - 1)->offset + (pos - 1)->size <= offset,
                 "double free of backing range");
    // Merge with adjacent holes so repeated migration reuses space at
    // full slab size.
    const bool merge_prev =
        pos != holes.begin() &&
        (pos - 1)->offset + (pos - 1)->size == offset;
    const bool merge_next =
        pos != holes.end() && offset + size == pos->offset;
    if (merge_prev && merge_next) {
        (pos - 1)->size += size + pos->size;
        holes.erase(pos);
    } else if (merge_prev) {
        (pos - 1)->size += size;
    } else if (merge_next) {
        pos->offset = offset;
        pos->size += size;
    } else {
        holes.insert(pos, FreeRange{offset, size});
    }
}

Bytes
ClusterAllocator::free_list_bytes(NodeId node) const
{
    PULSE_ASSERT(node < free_lists_.size(), "bad node id %u", node);
    Bytes total = 0;
    for (const FreeRange& r : free_lists_[node]) {
        total += r.size;
    }
    return total;
}

void
ClusterAllocator::checkpoint(StateIo& io)
{
    io.tag("ALOC");
    io.expect(static_cast<std::uint8_t>(policy_), "allocator policy");
    rng_.checkpoint(io);
    io.u64(chunk_bytes_);
    io.expect(std::uint64_t{bump_.size()}, "allocator node count");
    for (std::size_t i = 0; i < bump_.size(); i++) {
        io.u64(bump_[i]);
        io.u64(app_high_[i]);
        std::uint64_t ranges = free_lists_[i].size();
        io.count(ranges, 2 * sizeof(std::uint64_t));
        free_lists_[i].resize(ranges);
        for (FreeRange& range : free_lists_[i]) {
            io.u64(range.offset);
            io.u64(range.size);
        }
    }
    io.u32(round_robin_);
    io.u64(chunk_next_);
    io.u64(chunk_end_);
}

}  // namespace pulse::mem
