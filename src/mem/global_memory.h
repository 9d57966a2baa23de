/**
 * @file
 * Functional view of the whole disaggregated memory pool.
 *
 * GlobalMemory composes the AddressMap with every node's PhysicalMemory
 * and exposes byte-level reads/writes by cluster virtual address. It is
 * the *functional* path used by data-structure builders and by reference
 * (host-side) traversal execution; all *timed* paths (accelerator memory
 * pipeline, RPC CPU model, page cache) layer their timing on top and then
 * call into this for data movement.
 *
 * The cluster uses identity mapping inside each node region (VA offset ==
 * node-local physical address); per-node TCAMs are installed to match, so
 * functional and timed paths always observe the same bytes.
 */
#ifndef PULSE_MEM_GLOBAL_MEMORY_H
#define PULSE_MEM_GLOBAL_MEMORY_H

#include <memory>
#include <vector>

#include "mem/address_map.h"
#include "mem/physical_memory.h"

namespace pulse::mem {

/** Functional cluster-wide memory. */
class GlobalMemory
{
  public:
    /**
     * Create @p num_nodes memory nodes of @p node_capacity bytes each,
     * laid out per AddressMap.
     */
    GlobalMemory(std::uint32_t num_nodes, Bytes node_capacity);

    /** The VA partition. */
    const AddressMap& address_map() const { return map_; }

    /**
     * Mutable VA partition, for the placement plane to install/clear
     * remap overlays at migration cutover.
     */
    AddressMap& mutable_address_map() { return map_; }

    /** Direct access to one node's backing store. */
    PhysicalMemory& node(NodeId id);
    const PhysicalMemory& node(NodeId id) const;

    /** Number of memory nodes. */
    std::uint32_t num_nodes() const { return map_.num_nodes(); }

    /**
     * Read @p len bytes at virtual address @p va. The span must lie
     * within a single node region (allocations never straddle nodes).
     */
    void read(VirtAddr va, void* out, Bytes len) const;

    /** Write @p len bytes to virtual address @p va (single region). */
    void write(VirtAddr va, const void* in, Bytes len);

    /**
     * Sum of PhysicalMemory::mutations() across nodes: a cheap global
     * version counter for memory content. The golden oracle samples it
     * at submit and completion to decide whether an exact comparison
     * against the reference run is sound.
     */
    std::uint64_t
    mutation_count() const
    {
        std::uint64_t total = 0;
        for (const auto& node : nodes_) {
            total += node->mutations();
        }
        return total;
    }

    /** Typed read of a trivially-copyable value at @p va. */
    template <typename T>
    T
    read_as(VirtAddr va) const
    {
        T value{};
        read(va, &value, sizeof(T));
        return value;
    }

    /** Typed write of a trivially-copyable value at @p va. */
    template <typename T>
    void
    write_as(VirtAddr va, const T& value)
    {
        write(va, &value, sizeof(T));
    }

    /** Checkpoint support: every node's committed pages + counters. */
    void
    checkpoint(StateIo& io)
    {
        io.tag("GMEM");
        io.expect(std::uint64_t{nodes_.size()}, "memory-node count");
        for (auto& node : nodes_) {
            node->checkpoint(io);
        }
    }

  private:
    AddressMap map_;
    std::vector<std::unique_ptr<PhysicalMemory>> nodes_;
};

}  // namespace pulse::mem

#endif  // PULSE_MEM_GLOBAL_MEMORY_H
