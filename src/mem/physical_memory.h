/**
 * @file
 * Backing store for one memory node's DRAM.
 *
 * Functionally a flat byte array addressed by node-local physical
 * addresses. The whole capacity is one anonymous host mapping, reserved
 * without swap backing and aligned to 2 MiB, so physical address p
 * lives at host address base + p: a 256 B node at a 256 B-aligned
 * address spans exactly four host cache lines, and a read or write is
 * one memcpy. The host backs a page only once it is touched, so a
 * simulated multi-gigabyte node costs only the pages the workload
 * writes.
 *
 * Commitment is still counted in 1 MiB chunks (committed(), the
 * checkpoint format): a chunk is committed by its first write, and an
 * uncommitted chunk always holds zeros. The write that commits the
 * second chunk of a 2 MiB extent collapses the extent into one huge
 * page, so the accelerators' random node loads miss the TLB less. A
 * collapse the host refuses (an old kernel, transparent huge pages
 * off) costs only speed, never a simulated value. A half-used extent
 * stays on small pages, which keeps the resident set small.
 */
#ifndef PULSE_MEM_PHYSICAL_MEMORY_H
#define PULSE_MEM_PHYSICAL_MEMORY_H

#include <cstdint>
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
    ~PhysicalMemory();

    PhysicalMemory(const PhysicalMemory&) = delete;
    PhysicalMemory& operator=(const PhysicalMemory&) = delete;

    /** Total addressable capacity. */
    Bytes capacity() const { return capacity_; }

    /** Memory committed so far, in whole 1 MiB chunks. */
    Bytes committed() const;

    /** Copy @p len bytes at physical address @p addr into @p out. */
    void read(PhysAddr addr, void* out, Bytes len) const;

    /** Copy @p len bytes from @p in to physical address @p addr. */
    void write(PhysAddr addr, const void* in, Bytes len);

    /**
     * Host-side hint: bring the bytes of [@p addr, @p addr + @p len)
     * toward the host's cache ahead of a read(). It changes no
     * simulated state: it commits no chunk, counts no mutation, and
     * skips whatever lies past capacity() instead of asserting.
     */
    void prefetch(PhysAddr addr, Bytes len) const;

    /**
     * Host address of physical address @p addr. Only for tests that
     * check how node bytes sit in host cache lines.
     */
    const std::uint8_t*
    host_address(PhysAddr addr) const
    {
        return base_ + addr;
    }

    /**
     * 2 MiB extents the host collapsed into a huge page. Host
     * telemetry: it depends on the host's settings, so it is outside
     * the checkpoint and no simulated value reads it.
     */
    std::uint64_t huge_extents() const { return huge_extents_; }

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
     * costs what the workload actually touched. Restoring drops the
     * whole node back to zeros first and rejects an out-of-range
     * chunk index.
     */
    void checkpoint(StateIo& io);

  private:
    static constexpr Bytes kChunkSize = 1 * kMiB;
    static constexpr Bytes kExtentSize = 2 * kMiB;

    void commit(std::uint64_t chunk);

    Bytes capacity_;
    Bytes mapped_;  // capacity_ rounded up to whole extents
    std::uint8_t* base_ = nullptr;
    std::uint64_t mutations_ = 0;
    std::uint64_t huge_extents_ = 0;
    std::vector<bool> committed_;  // per 1 MiB chunk
};

}  // namespace pulse::mem

#endif  // PULSE_MEM_PHYSICAL_MEMORY_H
