#include "mem/physical_memory.h"

#include <sys/mman.h>
// After <sys/mman.h>: glibc's header lacks MADV_COLLAPSE (Linux 6.1).
#include <linux/mman.h>

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace pulse::mem {

PhysicalMemory::PhysicalMemory(Bytes capacity)
    : capacity_(capacity),
      mapped_((capacity + kExtentSize - 1) / kExtentSize * kExtentSize),
      committed_((capacity + kChunkSize - 1) / kChunkSize)
{
    PULSE_ASSERT(capacity > 0, "zero-capacity memory node");
    // Reserve one extent more than needed and trim both ends, so the
    // base is extent-aligned and every full extent can be a huge page.
    void* raw = mmap(nullptr, mapped_ + kExtentSize, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    PULSE_ASSERT(raw != MAP_FAILED, "cannot reserve %llu bytes of node memory",
                 static_cast<unsigned long long>(mapped_));
    auto* start = static_cast<std::uint8_t*>(raw);
    const auto head = (kExtentSize - reinterpret_cast<std::uintptr_t>(raw) %
                                         kExtentSize) % kExtentSize;
    base_ = start + head;
    if (head > 0) {
        munmap(start, head);
    }
    munmap(base_ + mapped_, kExtentSize - head);
}

PhysicalMemory::~PhysicalMemory()
{
    munmap(base_, mapped_);
}

Bytes
PhysicalMemory::committed() const
{
    return static_cast<Bytes>(
               std::count(committed_.begin(), committed_.end(), true)) *
           kChunkSize;
}

void
PhysicalMemory::commit(std::uint64_t chunk)
{
    static_assert(kExtentSize == 2 * kChunkSize);
    committed_[chunk] = true;
    // The commit that completes an extent copies its pages into one
    // huge page. The host may refuse, which leaves them on small pages
    // and changes only speed.
    const std::uint64_t other = chunk ^ 1;
    if (other < committed_.size() && committed_[other] &&
        madvise(base_ + chunk / 2 * kExtentSize, kExtentSize,
                MADV_COLLAPSE) == 0) {
        huge_extents_++;
    }
}

void
PhysicalMemory::read(PhysAddr addr, void* out, Bytes len) const
{
    PULSE_ASSERT(addr + len <= capacity_, "read past end of memory");
    if (len > 0) {
        // An uncommitted chunk is never-touched (or dropped) mapping,
        // which reads 0 without taking host memory.
        std::memcpy(out, base_ + addr, len);
    }
}

void
PhysicalMemory::prefetch(PhysAddr addr, Bytes len) const
{
    constexpr Bytes kLine = 64;
    const PhysAddr end = std::min<PhysAddr>(addr + len, capacity_);
    for (PhysAddr line = addr & ~(kLine - 1); line < end; line += kLine) {
        __builtin_prefetch(base_ + line);
    }
}

void
PhysicalMemory::write(PhysAddr addr, const void* in, Bytes len)
{
    PULSE_ASSERT(addr + len <= capacity_, "write past end of memory");
    mutations_++;
    if (len == 0) {
        return;
    }
    const std::uint64_t last = (addr + len - 1) / kChunkSize;
    for (std::uint64_t chunk = addr / kChunkSize; chunk <= last; chunk++) {
        if (!committed_[chunk]) {
            commit(chunk);
        }
    }
    std::memcpy(base_ + addr, in, len);
}

void
PhysicalMemory::checkpoint(StateIo& io)
{
    io.tag("PMEM");
    io.expect(capacity_, "node capacity");
    io.u64(mutations_);
    std::uint64_t committed_chunks = committed() / kChunkSize;
    if (io.reading()) {
        // A chunk committed by the current run but absent from the
        // snapshot must read zeros again: the whole node is dropped,
        // and the snapshot's chunks are committed afresh.
        const int dropped = madvise(base_, mapped_, MADV_DONTNEED);
        PULSE_ASSERT(dropped == 0, "cannot drop node memory");
        committed_.assign(committed_.size(), false);
        huge_extents_ = 0;
    }
    io.count(committed_chunks, 2 * sizeof(std::uint64_t) + kChunkSize);
    std::uint64_t index = 0;
    for (std::uint64_t c = 0; c < committed_chunks; c++, index++) {
        while (!io.reading() && !committed_[index]) {
            index++;
        }
        io.u64(index);
        if (index >= committed_.size()) {
            io.fail("chunk index %llu out of range",
                    static_cast<unsigned long long>(index));
            return;
        }
        if (io.reading() && !committed_[index]) {
            commit(index);
        }
        io.bytes(base_ + index * kChunkSize, kChunkSize);
    }
}

}  // namespace pulse::mem
