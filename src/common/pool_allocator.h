/**
 * @file
 * Freelist-backed STL allocator for hot-path node containers.
 *
 * The simulator's steady state churns a small set of node-based
 * containers at packet rate: the offload engine's in-flight map and
 * the admission queue's deques. Under the default allocator every
 * insert/erase cycle is a malloc/free pair — a large slice of
 * sim.allocs_per_event. This
 * allocator recycles freed blocks through size-keyed freelists instead
 * of returning them to the heap, so once a container reaches its
 * steady-state population, insert/erase performs no allocation at all.
 *
 * Design notes:
 *   - State is held behind a shared_ptr so rebound copies (map nodes,
 *     deque blocks, bucket arrays — all different sizes) share one pool
 *     and the allocator satisfies the STL copy/equality requirements.
 *   - A handful of size bins cover the distinct block sizes one
 *     container requests; sizes past the largest bin (or huge one-off
 *     arrays like hash buckets) fall through to operator new, which is
 *     fine: those are O(log n) growth events, not per-packet traffic.
 *   - No thread safety: one pool belongs to one simulated cluster,
 *     matching the rest of the simulator.
 */
#ifndef PULSE_COMMON_POOL_ALLOCATOR_H
#define PULSE_COMMON_POOL_ALLOCATOR_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace pulse {

/** Shared freelist state behind every rebound copy of one allocator. */
class PoolState
{
  public:
    static constexpr std::size_t kBins = 8;
    /** Largest pooled block: covers map/set nodes holding packets and
     *  deque blocks (libstdc++ caps them at 512 bytes of elements). */
    static constexpr std::size_t kMaxPooled = 2048;

    void*
    allocate(std::size_t bytes)
    {
        const std::size_t bin = bin_for(bytes);
        if (bin < kBins && !free_[bin].empty()) {
            void* block = free_[bin].back();
            free_[bin].pop_back();
            reused_++;
            return block;
        }
        fresh_++;
        return ::operator new(bin < kBins ? bin_bytes(bin) : bytes);
    }

    void
    deallocate(void* block, std::size_t bytes)
    {
        const std::size_t bin = bin_for(bytes);
        if (bin < kBins) {
            free_[bin].push_back(block);
            return;
        }
        ::operator delete(block);
    }

    std::uint64_t fresh() const { return fresh_; }
    std::uint64_t reused() const { return reused_; }

    ~PoolState()
    {
        for (auto& bin : free_) {
            for (void* block : bin) {
                ::operator delete(block);
            }
        }
    }

  private:
    /** Bin b holds blocks of 32 << b bytes (32..4096). */
    static std::size_t
    bin_for(std::size_t bytes)
    {
        std::size_t bin = 0;
        std::size_t cap = 32;
        while (cap < bytes) {
            cap <<= 1;
            bin++;
        }
        return cap <= kMaxPooled * 2 && bin < kBins ? bin : kBins;
    }

    static std::size_t bin_bytes(std::size_t bin) { return 32u << bin; }

    std::array<std::vector<void*>, kBins> free_;
    std::uint64_t fresh_ = 0;
    std::uint64_t reused_ = 0;
};

/** STL allocator recycling node blocks through a shared PoolState. */
template <typename T>
class PoolAllocator
{
  public:
    using value_type = T;

    PoolAllocator() : state_(std::make_shared<PoolState>()) {}

    explicit PoolAllocator(std::shared_ptr<PoolState> state)
        : state_(std::move(state))
    {
    }

    template <typename U>
    PoolAllocator(const PoolAllocator<U>& other) : state_(other.state())
    {
    }

    T*
    allocate(std::size_t n)
    {
        return static_cast<T*>(state_->allocate(n * sizeof(T)));
    }

    void
    deallocate(T* p, std::size_t n)
    {
        state_->deallocate(p, n * sizeof(T));
    }

    const std::shared_ptr<PoolState>& state() const { return state_; }

    template <typename U>
    friend bool
    operator==(const PoolAllocator& a, const PoolAllocator<U>& b)
    {
        return a.state() == b.state();
    }

  private:
    std::shared_ptr<PoolState> state_;
};

}  // namespace pulse

#endif  // PULSE_COMMON_POOL_ALLOCATOR_H
