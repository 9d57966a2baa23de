/**
 * @file
 * Copy-on-write byte overlay over a const GlobalMemory.
 *
 * The golden oracle re-executes traversals that may STORE or CAS; it
 * must never double-apply those effects to the real simulated memory
 * (the simulated path already did). ShadowMemory gives the reference
 * interpreter a private view: reads come from the overlay where
 * written, from the underlying GlobalMemory otherwise, and writes only
 * ever touch the overlay. The program-differential fuzzer additionally
 * uses flush() to materialize the overlay into a scratch GlobalMemory
 * for byte-level comparison against the production interpreter's run.
 */
#ifndef PULSE_CHECK_SHADOW_MEMORY_H
#define PULSE_CHECK_SHADOW_MEMORY_H

#include <cstdint>
#include <unordered_map>

#include "mem/global_memory.h"

namespace pulse::check {

/** Private overlay view of the cluster memory. */
class ShadowMemory
{
  public:
    explicit ShadowMemory(const mem::GlobalMemory& base) : base_(base)
    {
    }

    /** True when [va, va+len) lies inside one node region. */
    bool valid_span(VirtAddr va, Bytes len) const;

    /** Overlay-aware read; false when the span is invalid. */
    bool load(VirtAddr va, std::uint32_t len, std::uint8_t* out) const;

    /** Overlay-only write; false when the span is invalid. */
    bool store(VirtAddr va, std::uint32_t len, const std::uint8_t* in);

    /**
     * Atomic CAS of the u64 at @p va against the overlay view.
     * Returns false when the address is invalid; otherwise *swapped
     * reports whether the swap happened.
     */
    bool cas(VirtAddr va, std::uint64_t expected, std::uint64_t desired,
             bool* swapped);

    /**
     * Successful store() calls plus successful CAS swaps. Mirrors how
     * the timed path counts PhysicalMemory::write() calls (one per
     * applied store, one per swap), so the oracle can predict the
     * exact mutation-count delta its operation should produce.
     */
    std::uint64_t write_ops() const { return write_ops_; }

    /** Discard every overlay byte (fresh view of the base). */
    void
    clear()
    {
        overlay_.clear();
        write_ops_ = 0;
    }

    /** Apply the overlay to @p target (program-differential fuzz). */
    void flush(mem::GlobalMemory& target) const;

    const mem::GlobalMemory& base() const { return base_; }

  private:
    const mem::GlobalMemory& base_;
    std::unordered_map<VirtAddr, std::uint8_t> overlay_;
    std::uint64_t write_ops_ = 0;
};

}  // namespace pulse::check

#endif  // PULSE_CHECK_SHADOW_MEMORY_H
