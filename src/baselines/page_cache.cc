#include "baselines/page_cache.h"

#include "common/logging.h"

namespace pulse::baselines {

PageCache::PageCache(Bytes budget_bytes) : budget_bytes_(budget_bytes)
{
    PULSE_ASSERT(budget_bytes > 0, "empty cache");
}

bool
PageCache::access(std::uint64_t key)
{
    const auto it = map_.find(key);
    if (it == map_.end()) {
        stats_.misses.increment();
        return false;
    }
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    stats_.hits.increment();
    return true;
}

void
PageCache::fill(std::uint64_t key, Bytes bytes)
{
    if (map_.count(key)) {
        return;
    }
    while (cached_bytes_ + bytes > budget_bytes_ && !lru_.empty()) {
        const auto victim = map_.find(lru_.back());
        cached_bytes_ -= victim->second.bytes;
        map_.erase(victim);
        lru_.pop_back();
        stats_.evictions.increment();
    }
    lru_.push_front(key);
    map_[key] = Entry{lru_.begin(), bytes};
    cached_bytes_ += bytes;
}

void
PageCache::clear()
{
    lru_.clear();
    map_.clear();
    cached_bytes_ = 0;
}

}  // namespace pulse::baselines
