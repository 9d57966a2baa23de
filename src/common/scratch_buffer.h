/**
 * @file
 * Fixed-capacity inline byte buffer for traversal scratch pads.
 *
 * Traversal packets live in the network's PacketArena and travel by
 * handle, but replay-cache entries, retransmit buffers and response
 * slots still copy them; carrying the scratch pad in a std::vector
 * made each of those copies a heap allocation — once the dominant
 * term in sim.allocs_per_event. A ScratchBuffer stores the bytes
 * inline (capacity sized to the largest scratch footprint any shipped
 * program declares, with headroom), so packet copies are plain
 * memcpys and the steady-state simulation path performs no allocation.
 *
 * The class is trivially copyable by design: that property is what
 * lets arena slots and pooled records hold packets with no heap
 * traffic, and it is enforced with a static_assert below. The API
 * mirrors the subset of std::vector<uint8_t> the codebase uses
 * (size/resize/assign/data/begin/end/operator[]), plus implicit
 * conversions from/to std::vector so call sites that still traffic in
 * vectors (interpreter workspaces, completions) keep working unchanged.
 */
#ifndef PULSE_COMMON_SCRATCH_BUFFER_H
#define PULSE_COMMON_SCRATCH_BUFFER_H

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

namespace pulse {

/**
 * Inline capacity in bytes. The largest scratch footprint a shipped
 * program declares is the B+Tree scan resume state (344 bytes: the
 * 104-byte stage header plus 15 leaf slots x 16 bytes); the hash-table
 * find ships 264. 384 leaves headroom while keeping every packet copy
 * (arena slot, replay entry) under a kilobyte. Growing a
 * program's shipped footprint past this is a loud assertion at the
 * resize site, not a silent heap fallback.
 */
inline constexpr std::size_t kScratchCapacity = 384;

/** Fixed-capacity byte buffer with a vector-like interface. */
class ScratchBuffer
{
  public:
    ScratchBuffer() = default;

    /** Implicit conversion from a vector (call-site compatibility). */
    ScratchBuffer(const std::vector<std::uint8_t>& bytes)  // NOLINT
    {
        assign(bytes.data(), bytes.size());
    }

    ScratchBuffer(std::size_t count, std::uint8_t value)
    {
        resize(count, value);
    }

    /** Materialize as a vector (interpreter/oracle boundaries). */
    std::vector<std::uint8_t>
    to_vector() const
    {
        return std::vector<std::uint8_t>(begin(), end());
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    static constexpr std::size_t capacity() { return kScratchCapacity; }

    std::uint8_t* data() { return bytes_.data(); }
    const std::uint8_t* data() const { return bytes_.data(); }

    std::uint8_t* begin() { return bytes_.data(); }
    const std::uint8_t* begin() const { return bytes_.data(); }
    std::uint8_t* end() { return bytes_.data() + size_; }
    const std::uint8_t* end() const { return bytes_.data() + size_; }

    std::uint8_t& operator[](std::size_t i) { return bytes_[i]; }
    const std::uint8_t& operator[](std::size_t i) const
    {
        return bytes_[i];
    }

    void clear() { size_ = 0; }

    void
    resize(std::size_t count, std::uint8_t value = 0)
    {
        assert(count <= kScratchCapacity &&
               "scratch footprint exceeds ScratchBuffer capacity — "
               "grow kScratchCapacity deliberately");
        if (count > size_) {
            std::memset(bytes_.data() + size_, value, count - size_);
        }
        size_ = static_cast<std::uint16_t>(count);
    }

    void
    assign(const std::uint8_t* src, std::size_t count)
    {
        assert(count <= kScratchCapacity &&
               "scratch footprint exceeds ScratchBuffer capacity — "
               "grow kScratchCapacity deliberately");
        if (count != 0) {
            // An empty source may be null (an empty vector's data()).
            std::memcpy(bytes_.data(), src, count);
        }
        size_ = static_cast<std::uint16_t>(count);
    }

    /** Fill with @p count copies of @p value (vector's assign(n, v)). */
    void
    assign(std::size_t count, std::uint8_t value)
    {
        assert(count <= kScratchCapacity &&
               "scratch footprint exceeds ScratchBuffer capacity — "
               "grow kScratchCapacity deliberately");
        std::memset(bytes_.data(), value, count);
        size_ = static_cast<std::uint16_t>(count);
    }

    /**
     * Iterator-range assign. Constrained to non-integral iterators so
     * assign(16, 0) picks the count/value overload above, exactly like
     * std::vector's rule.
     */
    template <typename It,
              typename = std::enable_if_t<!std::is_integral_v<It>>>
    void
    assign(It first, It last)
    {
        std::size_t count = 0;
        for (It it = first; it != last; ++it) {
            assert(count < kScratchCapacity &&
                   "scratch footprint exceeds ScratchBuffer capacity");
            bytes_[count++] = static_cast<std::uint8_t>(*it);
        }
        size_ = static_cast<std::uint16_t>(count);
    }

    void
    push_back(std::uint8_t value)
    {
        assert(size_ < kScratchCapacity);
        bytes_[size_++] = value;
    }

    friend bool
    operator==(const ScratchBuffer& a, const ScratchBuffer& b)
    {
        return a.size_ == b.size_ &&
               std::equal(a.begin(), a.end(), b.begin());
    }

  private:
    std::uint16_t size_ = 0;
    std::array<std::uint8_t, kScratchCapacity> bytes_{};
};

/**
 * The whole point: copying a packet (retransmit buffers, replay
 * caches, event captures) must never touch the heap.
 */
static_assert(std::is_trivially_copyable_v<ScratchBuffer>);

}  // namespace pulse

#endif  // PULSE_COMMON_SCRATCH_BUFFER_H
