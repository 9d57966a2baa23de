/**
 * @file
 * One slab of in-flight traversal packets, addressed by 4-byte handles.
 *
 * A TraversalPacket carries code, cur_ptr and the scratch pad (paper
 * section 4.2.4), so it is close to a kilobyte. Instead of copying it
 * into every event closure, admission-queue node and visit context on
 * every hop, the Network owns one PacketArena and every component hands
 * the packet on as a PacketHandle: the holder of a handle owns the slot
 * and either passes the handle on or releases it. This follows SST's
 * link model, where components transfer ownership of an Event* instead
 * of copying its payload.
 *
 * Slots live in fixed-size chunks, so a packet never moves while the
 * arena grows: a caller may hold a slot reference across acquire().
 * Released slots go on a free list. Each handle carries a generation
 * tag that release() bumps; every access and every release checks it,
 * so a stale handle or a double release panics instead of touching a
 * recycled packet. The tag is kGenerationBits wide, so a handle held
 * across that many reuses of its slot would alias; no code path holds
 * one that long.
 */
#ifndef PULSE_NET_PACKET_ARENA_H
#define PULSE_NET_PACKET_ARENA_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "net/packet.h"

namespace pulse::net {

/** Owning reference to one arena slot (index + generation tag). */
struct PacketHandle
{
    std::uint32_t bits = 0xFFFFFFFFu;

    friend bool operator==(PacketHandle, PacketHandle) = default;
};

/** Slab allocator of TraversalPackets with generation-checked handles. */
class PacketArena
{
  public:
    /** Slots per chunk; chunks are never freed or moved. */
    static constexpr std::uint32_t kChunkSlots = 256;
    static constexpr std::uint32_t kGenerationBits = 10;

    PacketArena() = default;
    PacketArena(const PacketArena&) = delete;
    PacketArena& operator=(const PacketArena&) = delete;

    /**
     * A free slot. Its contents are unspecified (a released packet's
     * bytes): the caller sets every field or assigns a whole packet.
     */
    PacketHandle
    acquire()
    {
        std::uint32_t index;
        if (!free_.empty()) {
            index = free_.back();
            free_.pop_back();
        } else {
            index = static_cast<std::uint32_t>(generation_.size());
            PULSE_ASSERT(index < kMaxSlots, "packet arena full (%u slots)",
                         index);
            if (index % kChunkSlots == 0) {
                chunks_.push_back(
                    std::make_unique<TraversalPacket[]>(kChunkSlots));
            }
            generation_.push_back(0);
        }
        live_++;
        if (live_ > peak_) {
            peak_ = live_;
        }
        return PacketHandle{(std::uint32_t{generation_[index]}
                             << kIndexBits) |
                            index};
    }

    /** A slot holding a used-bytes copy of @p packet (which may live
     *  here; see copy_used). */
    PacketHandle
    acquire(const TraversalPacket& packet)
    {
        const PacketHandle handle = acquire();
        copy_used((*this)[handle], packet);
        return handle;
    }

    /** Return @p handle's slot to the free list; the handle goes stale. */
    void
    release(PacketHandle handle)
    {
        const std::uint32_t index = checked_index(handle);
        generation_[index] =
            static_cast<std::uint16_t>((generation_[index] + 1) &
                                       kGenerationMask);
        free_.push_back(index);
        live_--;
    }

    TraversalPacket&
    operator[](PacketHandle handle)
    {
        const std::uint32_t index = checked_index(handle);
        return chunks_[index / kChunkSlots][index % kChunkSlots];
    }

    const TraversalPacket&
    operator[](PacketHandle handle) const
    {
        const std::uint32_t index = checked_index(handle);
        return chunks_[index / kChunkSlots][index % kChunkSlots];
    }

    /** Slots currently held (0 once a cluster has quiesced). */
    std::size_t live() const { return live_; }

    /** High-water mark of live(). */
    std::size_t peak() const { return peak_; }

  private:
    static constexpr std::uint32_t kIndexBits = 32 - kGenerationBits;
    static constexpr std::uint32_t kMaxSlots = 1u << kIndexBits;
    static constexpr std::uint32_t kGenerationMask =
        (1u << kGenerationBits) - 1;

    std::uint32_t
    checked_index(PacketHandle handle) const
    {
        const std::uint32_t index = handle.bits & (kMaxSlots - 1);
        PULSE_ASSERT(index < generation_.size() &&
                         generation_[index] ==
                             (handle.bits >> kIndexBits),
                     "stale or invalid packet handle 0x%08x",
                     handle.bits);
        return index;
    }

    std::vector<std::unique_ptr<TraversalPacket[]>> chunks_;
    /** Current generation of each slot; release() bumps it. */
    std::vector<std::uint16_t> generation_;
    std::vector<std::uint32_t> free_;
    std::size_t live_ = 0;
    std::size_t peak_ = 0;
};

}  // namespace pulse::net

#endif  // PULSE_NET_PACKET_ARENA_H
