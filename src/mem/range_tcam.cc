#include "mem/range_tcam.h"

#include <algorithm>

#include "common/logging.h"

namespace pulse::mem {

RangeTcam::RangeTcam(std::size_t capacity) : capacity_(capacity)
{
    PULSE_ASSERT(capacity > 0, "zero-capacity TCAM");
}

bool
RangeTcam::insert(const RangeEntry& entry)
{
    if (entries_.size() >= capacity_ || entry.length == 0) {
        return false;
    }
    auto pos = std::lower_bound(
        entries_.begin(), entries_.end(), entry.va_base,
        [](const RangeEntry& e, VirtAddr va) { return e.va_base < va; });
    // Overlap checks against the neighbours in va_base order.
    if (pos != entries_.begin()) {
        const auto& prev = *(pos - 1);
        if (prev.va_base + prev.length > entry.va_base) {
            return false;
        }
    }
    if (pos != entries_.end()) {
        if (entry.va_base + entry.length > pos->va_base) {
            return false;
        }
    }
    entries_.insert(pos, entry);
    return true;
}

bool
RangeTcam::insert_coalesce(const RangeEntry& entry)
{
    if (entry.length == 0) {
        return false;
    }
    auto pos = std::lower_bound(
        entries_.begin(), entries_.end(), entry.va_base,
        [](const RangeEntry& e, VirtAddr va) { return e.va_base < va; });
    if (pos != entries_.begin()) {
        RangeEntry& prev = *(pos - 1);
        if (prev.va_base + prev.length > entry.va_base) {
            return false;  // overlap
        }
        if (prev.va_base + prev.length == entry.va_base &&
            prev.phys_base + prev.length == entry.phys_base &&
            prev.perm == entry.perm) {
            prev.length += entry.length;
            // The grown entry may now also abut its successor.
            if (pos != entries_.end() &&
                prev.va_base + prev.length == pos->va_base &&
                prev.phys_base + prev.length == pos->phys_base &&
                prev.perm == pos->perm) {
                prev.length += pos->length;
                entries_.erase(pos);
            }
            return true;
        }
    }
    if (pos != entries_.end()) {
        RangeEntry& next = *pos;
        if (entry.va_base + entry.length > next.va_base) {
            return false;  // overlap
        }
        if (entry.va_base + entry.length == next.va_base &&
            entry.phys_base + entry.length == next.phys_base &&
            entry.perm == next.perm) {
            next.va_base = entry.va_base;
            next.phys_base = entry.phys_base;
            next.length += entry.length;
            return true;
        }
    }
    return insert(entry);
}

bool
RangeTcam::can_punch(VirtAddr va_base, Bytes length) const
{
    if (length == 0) {
        return false;
    }
    const RangeEntry* entry = find(va_base);
    if (entry == nullptr || !entry->contains(va_base + length - 1)) {
        return false;
    }
    const bool middle_split = entry->va_base < va_base &&
                              va_base + length <
                                  entry->va_base + entry->length;
    return !middle_split || entries_.size() < capacity_;
}

bool
RangeTcam::punch(VirtAddr va_base, Bytes length)
{
    if (!can_punch(va_base, length)) {
        return false;
    }
    auto pos = std::upper_bound(
        entries_.begin(), entries_.end(), va_base,
        [](VirtAddr v, const RangeEntry& e) { return v < e.va_base; });
    RangeEntry& entry = *(pos - 1);
    const VirtAddr hole_end = va_base + length;
    const VirtAddr entry_end = entry.va_base + entry.length;
    if (entry.va_base == va_base && entry_end == hole_end) {
        entries_.erase(pos - 1);
    } else if (entry.va_base == va_base) {
        // Trim the front; the mapping of the tail shifts with it.
        entry.phys_base += length;
        entry.va_base = hole_end;
        entry.length -= length;
    } else if (entry_end == hole_end) {
        entry.length -= length;  // trim the back
    } else {
        // Middle hole: keep the head in place, insert the tail after.
        RangeEntry tail = entry;
        tail.va_base = hole_end;
        tail.phys_base = entry.phys_base + (hole_end - entry.va_base);
        tail.length = entry_end - hole_end;
        entry.length = va_base - entry.va_base;
        entries_.insert(pos, tail);
    }
    return true;
}

bool
RangeTcam::remove(VirtAddr va_base)
{
    auto pos = std::lower_bound(
        entries_.begin(), entries_.end(), va_base,
        [](const RangeEntry& e, VirtAddr va) { return e.va_base < va; });
    if (pos == entries_.end() || pos->va_base != va_base) {
        return false;
    }
    entries_.erase(pos);
    return true;
}

const RangeEntry*
RangeTcam::find(VirtAddr va) const
{
    auto pos = std::upper_bound(
        entries_.begin(), entries_.end(), va,
        [](VirtAddr v, const RangeEntry& e) { return v < e.va_base; });
    if (pos == entries_.begin()) {
        return nullptr;
    }
    const RangeEntry& candidate = *(pos - 1);
    return candidate.contains(va) ? &candidate : nullptr;
}

TranslateResult
RangeTcam::translate(VirtAddr va, Perm need) const
{
    const RangeEntry* entry = find(va);
    if (entry == nullptr) {
        return {TranslateStatus::kMiss, 0};
    }
    if (!permits(entry->perm, need)) {
        return {TranslateStatus::kProtectionFault, 0};
    }
    return {TranslateStatus::kOk, entry->phys_base + (va - entry->va_base)};
}

TranslateResult
RangeTcam::translate_span(VirtAddr va, Bytes length, Perm need) const
{
    const RangeEntry* entry = find(va);
    if (entry == nullptr ||
        (length > 0 && !entry->contains(va + length - 1))) {
        return {TranslateStatus::kMiss, 0};
    }
    if (!permits(entry->perm, need)) {
        return {TranslateStatus::kProtectionFault, 0};
    }
    return {TranslateStatus::kOk, entry->phys_base + (va - entry->va_base)};
}

void
RangeTcam::checkpoint(StateIo& io)
{
    std::uint64_t count = entries_.size();
    io.count(count, 3 * sizeof(std::uint64_t) + sizeof(Perm));
    if (count > capacity_) {
        io.fail("TCAM snapshot holds %llu entries, capacity %zu",
                static_cast<unsigned long long>(count), capacity_);
        count = 0;
    }
    entries_.resize(count);
    for (std::size_t i = 0; i < entries_.size(); i++) {
        RangeEntry& entry = entries_[i];
        io.u64(entry.va_base);
        io.u64(entry.length);
        io.u64(entry.phys_base);
        io.enum8(entry.perm, Perm::kReadWrite);
        const RangeEntry* prev = i > 0 ? &entries_[i - 1] : nullptr;
        if (prev != nullptr && (prev->va_base > entry.va_base ||
                                prev->length >
                                    entry.va_base - prev->va_base)) {
            io.fail("TCAM snapshot not sorted and disjoint");
        }
    }
}

}  // namespace pulse::mem
