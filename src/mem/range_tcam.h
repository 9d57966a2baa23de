/**
 * @file
 * Range-based translation and protection table (the accelerator's half of
 * hierarchical address translation; paper sections 4.2.1 and 5).
 *
 * The paper follows MIND/range-translation designs: instead of fixed-size
 * page-table entries, the accelerator's TCAM holds a small number of
 * variable-length range entries {va_base, length -> phys_base, perms}.
 * This models the TCAM functionally (parallel match == longest containing
 * range) and enforces its limited capacity, which is what makes
 * replicating the whole cluster's translations at every node infeasible
 * (the motivation for switch-level routing in section 5).
 */
#ifndef PULSE_MEM_RANGE_TCAM_H
#define PULSE_MEM_RANGE_TCAM_H

#include <cstdint>
#include <optional>
#include <vector>

#include "common/serial.h"
#include "common/types.h"
#include "common/units.h"

namespace pulse::mem {

/** Access permissions carried by each translation entry. */
enum class Perm : std::uint8_t {
    kNone = 0,
    kRead = 1,
    kWrite = 2,
    kReadWrite = 3,
};

/** True if @p have grants everything @p need requires. */
constexpr bool
permits(Perm have, Perm need)
{
    return (static_cast<std::uint8_t>(have) &
            static_cast<std::uint8_t>(need)) ==
           static_cast<std::uint8_t>(need);
}

/** One TCAM range entry. */
struct RangeEntry
{
    VirtAddr va_base = 0;
    Bytes length = 0;
    PhysAddr phys_base = 0;
    Perm perm = Perm::kNone;

    bool
    contains(VirtAddr va) const
    {
        return va >= va_base && va - va_base < length;
    }
};

/** Outcome classification for a translation attempt. */
enum class TranslateStatus {
    kOk,               ///< hit with sufficient permissions
    kMiss,             ///< address not covered: pointer is not local
    kProtectionFault,  ///< covered, but permissions insufficient
};

/** Result of RangeTcam::translate(). */
struct TranslateResult
{
    TranslateStatus status = TranslateStatus::kMiss;
    PhysAddr phys = 0;
};

/**
 * Capacity-limited range TCAM. Entries must be non-overlapping; inserts
 * that would overlap or exceed capacity are rejected, mirroring the real
 * resource constraint.
 */
class RangeTcam
{
  public:
    /** Create a TCAM with room for @p capacity range entries. */
    explicit RangeTcam(std::size_t capacity);

    /** Install a range entry. Returns false on overlap/full table. */
    bool insert(const RangeEntry& entry);

    /**
     * Install a range entry, merging with a VA-adjacent neighbour when
     * the physical mapping continues seamlessly (same perm, phys_base
     * contiguous with the neighbour's). Live migration installs one
     * sub-range per migrated slab; adjacent slabs moving to the same
     * node would otherwise fragment the table past its capacity.
     * Returns false on overlap, or on a full table when no merge is
     * possible.
     */
    bool insert_coalesce(const RangeEntry& entry);

    /** Remove the entry whose va_base equals @p va_base, if present. */
    bool remove(VirtAddr va_base);

    /**
     * True if punch(@p va_base, @p length) would succeed: the span is
     * fully covered by one entry and splitting it would not exceed
     * capacity. Migration checks this before committing a cutover.
     */
    bool can_punch(VirtAddr va_base, Bytes length) const;

    /**
     * Carve a hole out of the entry covering [@p va_base, @p va_base +
     * @p length): translations inside the hole then miss (the pointer
     * is no longer local) while the surrounding pieces keep their
     * original mapping. Splitting an entry in the middle adds one
     * entry; punching at an edge (or the whole entry) does not grow
     * the table. Returns false when the span is not fully covered by a
     * single entry or the split would exceed capacity.
     */
    bool punch(VirtAddr va_base, Bytes length);

    /** Translate @p va for an access needing @p need permissions. */
    TranslateResult translate(VirtAddr va, Perm need) const;

    /**
     * Translate a @p length-byte access: additionally faults (kMiss) if
     * the access would run past the end of its range entry.
     */
    TranslateResult translate_span(VirtAddr va, Bytes length,
                                   Perm need) const;

    std::size_t size() const { return entries_.size(); }
    std::size_t capacity() const { return capacity_; }
    const std::vector<RangeEntry>& entries() const { return entries_; }

    /**
     * Checkpoint support: the whole table. Restoring rejects more
     * entries than capacity(), a Perm outside its enum, and entries
     * that are not sorted and disjoint.
     */
    void checkpoint(StateIo& io);

  private:
    const RangeEntry* find(VirtAddr va) const;

    std::size_t capacity_;
    std::vector<RangeEntry> entries_;  // sorted by va_base
};

}  // namespace pulse::mem

#endif  // PULSE_MEM_RANGE_TCAM_H
