#include "mem/physical_memory.h"

#include <cstring>

#include "common/logging.h"

namespace pulse::mem {

PhysicalMemory::PhysicalMemory(Bytes capacity) : capacity_(capacity)
{
    PULSE_ASSERT(capacity > 0, "zero-capacity memory node");
    chunks_.resize((capacity + kChunkSize - 1) / kChunkSize);
}

Bytes
PhysicalMemory::committed() const
{
    Bytes total = 0;
    for (const auto& chunk : chunks_) {
        if (chunk) {
            total += kChunkSize;
        }
    }
    return total;
}

std::uint8_t*
PhysicalMemory::chunk_for(PhysAddr addr, bool commit) const
{
    const auto index = addr / kChunkSize;
    PULSE_ASSERT(index < chunks_.size(),
                 "physical address 0x%llx out of range",
                 static_cast<unsigned long long>(addr));
    if (!chunks_[index]) {
        if (!commit) {
            return nullptr;
        }
        chunks_[index] = std::make_unique<std::uint8_t[]>(kChunkSize);
        std::memset(chunks_[index].get(), 0, kChunkSize);
    }
    return chunks_[index].get();
}

void
PhysicalMemory::read(PhysAddr addr, void* out, Bytes len) const
{
    PULSE_ASSERT(addr + len <= capacity_, "read past end of memory");
    auto* dst = static_cast<std::uint8_t*>(out);
    while (len > 0) {
        const Bytes offset = addr % kChunkSize;
        const Bytes take = std::min(len, kChunkSize - offset);
        const std::uint8_t* chunk = chunk_for(addr, /*commit=*/false);
        if (chunk) {
            std::memcpy(dst, chunk + offset, take);
        } else {
            std::memset(dst, 0, take);  // never-written memory reads 0
        }
        dst += take;
        addr += take;
        len -= take;
    }
}

void
PhysicalMemory::write(PhysAddr addr, const void* in, Bytes len)
{
    PULSE_ASSERT(addr + len <= capacity_, "write past end of memory");
    mutations_++;
    const auto* src = static_cast<const std::uint8_t*>(in);
    while (len > 0) {
        const Bytes offset = addr % kChunkSize;
        const Bytes take = std::min(len, kChunkSize - offset);
        std::uint8_t* chunk = chunk_for(addr, /*commit=*/true);
        std::memcpy(chunk + offset, src, take);
        src += take;
        addr += take;
        len -= take;
    }
}

void
PhysicalMemory::checkpoint(StateIo& io)
{
    io.tag("PMEM");
    io.expect(capacity_, "node capacity");
    io.u64(mutations_);
    std::uint64_t committed_chunks = 0;
    for (auto& chunk : chunks_) {
        if (io.reading()) {
            // A chunk committed by the current run but absent from the
            // snapshot must read zeros again.
            chunk.reset();
        } else if (chunk) {
            committed_chunks++;
        }
    }
    io.count(committed_chunks, 2 * sizeof(std::uint64_t) + kChunkSize);
    std::uint64_t index = 0;
    for (std::uint64_t c = 0; c < committed_chunks; c++, index++) {
        while (!io.reading() && !chunks_[index]) {
            index++;
        }
        io.u64(index);
        if (index >= chunks_.size()) {
            io.fail("chunk index %llu out of range",
                    static_cast<unsigned long long>(index));
            return;
        }
        if (io.reading()) {
            chunks_[index] = std::make_unique<std::uint8_t[]>(kChunkSize);
        }
        io.bytes(chunks_[index].get(), kChunkSize);
    }
}

}  // namespace pulse::mem
