/**
 * @file
 * Backing store for one memory node's DRAM.
 *
 * Functionally a flat byte array addressed by node-local physical
 * addresses; storage is committed lazily in fixed-size chunks so that a
 * simulated multi-gigabyte node only consumes host memory for the pages
 * the workload actually touches.
 */
#ifndef PULSE_MEM_PHYSICAL_MEMORY_H
#define PULSE_MEM_PHYSICAL_MEMORY_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/serial.h"
#include "common/types.h"
#include "common/units.h"

namespace pulse::mem {

/** Lazily-committed byte store for a single memory node. */
class PhysicalMemory
{
  public:
    /** Create a node memory of @p capacity bytes. */
    explicit PhysicalMemory(Bytes capacity);

    /** Total addressable capacity. */
    Bytes capacity() const { return capacity_; }

    /** Host memory actually committed so far. */
    Bytes committed() const;

    /** Copy @p len bytes at physical address @p addr into @p out. */
    void read(PhysAddr addr, void* out, Bytes len) const;

    /** Copy @p len bytes from @p in to physical address @p addr. */
    void write(PhysAddr addr, const void* in, Bytes len);

    /**
     * Number of write() calls since construction. Every mutation of
     * node memory funnels through write(), so the golden oracle uses
     * this to detect whether other writers raced a checked traversal
     * (exact comparison is only sound when none did).
     */
    std::uint64_t mutations() const { return mutations_; }

    /** Convenience typed read of a trivially-copyable value. */
    template <typename T>
    T
    read_as(PhysAddr addr) const
    {
        T value{};
        read(addr, &value, sizeof(T));
        return value;
    }

    /** Convenience typed write of a trivially-copyable value. */
    template <typename T>
    void
    write_as(PhysAddr addr, const T& value)
    {
        write(addr, &value, sizeof(T));
    }

    /**
     * Checkpoint support (core/checkpoint.cc): serializes only the
     * committed chunks (index + bytes), so a sparse multi-GiB node
     * costs what the workload actually touched. Restoring decommits
     * every chunk first and rejects an out-of-range chunk index.
     */
    void checkpoint(StateIo& io);

  private:
    static constexpr Bytes kChunkSize = 1 * kMiB;

    std::uint8_t* chunk_for(PhysAddr addr, bool commit) const;

    Bytes capacity_;
    std::uint64_t mutations_ = 0;
    // mutable: reads of never-written chunks return zeros without commit,
    // but the chunk table itself may grow on first commit during write.
    mutable std::vector<std::unique_ptr<std::uint8_t[]>> chunks_;
};

}  // namespace pulse::mem

#endif  // PULSE_MEM_PHYSICAL_MEMORY_H
