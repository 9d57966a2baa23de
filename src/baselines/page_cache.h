/**
 * @file
 * Client-side LRU cache with a byte budget, the core of both caching
 * baselines (paper section 7):
 *
 *   - Cache-based (Fastswap-style swap-backed far memory): keyed by
 *     page-aligned virtual address, every entry one page;
 *   - Cache+RPC (AIFM): keyed by object id, every entry its object's
 *     bytes.
 *
 * Timing-only model: it tracks *presence* with LRU eviction; data
 * always comes functionally from GlobalMemory (the measured workloads
 * are read-only during measurement, so contents never diverge). The
 * paper's key observation — pointer chasing has poor page locality, so
 * nearly every hop faults — falls straight out of this structure.
 */
#ifndef PULSE_BASELINES_PAGE_CACHE_H
#define PULSE_BASELINES_PAGE_CACHE_H

#include <cstdint>
#include <list>
#include <unordered_map>

#include "common/stats.h"
#include "common/types.h"
#include "common/units.h"

namespace pulse::baselines {

/** Page-align @p va (@p page_bytes is a power of two). */
inline VirtAddr
page_of(VirtAddr va, Bytes page_bytes)
{
    return va & ~(page_bytes - 1);
}

/** LRU cache of u64 keys under a byte budget. */
class PageCache
{
  public:
    struct Stats
    {
        Counter hits;
        Counter misses;
        Counter evictions;
    };

    /**
     * @param budget_bytes cache size (the paper's page cache is 2 GB
     *        against ~120 GB of data; benches scale both together)
     */
    explicit PageCache(Bytes budget_bytes);

    /** True (and LRU-refreshed) when @p key is resident. */
    bool access(std::uint64_t key);

    /**
     * Install @p key at @p bytes, first evicting least-recently-used
     * entries while the cached bytes plus @p bytes exceed the budget.
     * A resident key stays as it is (a raced fill).
     */
    void fill(std::uint64_t key, Bytes bytes);

    /** Resident entry count. */
    std::size_t resident() const { return map_.size(); }

    /** Drop everything. */
    void clear();

    const Stats& stats() const { return stats_; }
    void reset_stats() { stats_ = Stats{}; }

  private:
    struct Entry
    {
        std::list<std::uint64_t>::iterator lru_pos;
        Bytes bytes = 0;
    };

    Bytes budget_bytes_;
    Bytes cached_bytes_ = 0;
    std::list<std::uint64_t> lru_;  // front = most recent
    std::unordered_map<std::uint64_t, Entry> map_;
    Stats stats_;
};

}  // namespace pulse::baselines

#endif  // PULSE_BASELINES_PAGE_CACHE_H
