#include "common/histogram.h"

#include <algorithm>
#include <bit>

#include "common/serial.h"

namespace pulse {

Histogram::Histogram() = default;

std::size_t
Histogram::bucket_index(Time sample)
{
    const auto v = static_cast<std::uint64_t>(sample);
    if (v < (1ull << kSubBucketBits)) {
        return static_cast<std::size_t>(v);
    }
    const int msb = 63 - std::countl_zero(v);
    const int shift = msb - kSubBucketBits;
    const auto sub = static_cast<std::size_t>(
        (v >> shift) & ((1ull << kSubBucketBits) - 1));
    // One octave of 2^kSubBucketBits buckets per leading-bit position.
    return (static_cast<std::size_t>(msb - kSubBucketBits + 1)
            << kSubBucketBits) + sub;
}

Time
Histogram::bucket_upper(std::size_t index)
{
    if (index < (1ull << kSubBucketBits)) {
        return static_cast<Time>(index);
    }
    const auto octave = (index >> kSubBucketBits);
    const auto sub = index & ((1ull << kSubBucketBits) - 1);
    const int shift = static_cast<int>(octave) - 1;
    const std::uint64_t base = (1ull << kSubBucketBits) << shift;
    const std::uint64_t step = 1ull << shift;
    return static_cast<Time>(base + (sub + 1) * step - 1);
}

void
Histogram::add(Time sample)
{
    if (sample < 0) {
        sample = 0;
    }
    const auto index = bucket_index(sample);
    if (index >= buckets_.size()) {
        buckets_.resize(index + 1, 0);
    }
    buckets_[index]++;
    if (count_ == 0) {
        min_ = max_ = sample;
    } else {
        min_ = std::min(min_, sample);
        max_ = std::max(max_, sample);
    }
    count_++;
    sum_ += sample;
}

void
Histogram::merge(const Histogram& other)
{
    if (other.count_ == 0) {
        return;
    }
    if (other.buckets_.size() > buckets_.size()) {
        buckets_.resize(other.buckets_.size(), 0);
    }
    for (std::size_t i = 0; i < other.buckets_.size(); i++) {
        buckets_[i] += other.buckets_[i];
    }
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    sum_ += other.sum_;
}

void
Histogram::reset()
{
    buckets_.clear();
    count_ = 0;
    sum_ = 0;
    min_ = 0;
    max_ = 0;
}

Time
Histogram::mean() const
{
    return count_ ? sum_ / static_cast<Time>(count_) : 0;
}

void
Histogram::checkpoint(StateIo& io)
{
    io.tag("HIST");
    std::uint64_t buckets = buckets_.size();
    io.count(buckets, sizeof(std::uint64_t));
    buckets_.resize(buckets);
    for (std::uint64_t& bucket : buckets_) {
        io.u64(bucket);
    }
    io.u64(count_);
    io.i64(sum_);
    io.i64(min_);
    io.i64(max_);
}

Time
Histogram::percentile(double q) const
{
    if (count_ == 0) {
        return 0;
    }
    q = std::clamp(q, 0.0, 1.0);
    const auto target = static_cast<std::uint64_t>(
        q * static_cast<double>(count_ - 1));
    // Nearest-rank extremes are known exactly: the lowest rank is the
    // tracked minimum, the highest the tracked maximum. Without the
    // low-side special case, percentile(0.0) would report the first
    // non-empty bucket's *upper* bound — a value that can exceed every
    // recorded sample (e.g. samples {1000, 1003} -> 1007).
    if (target == 0) {
        return min_;
    }
    if (target == count_ - 1) {
        return max_;
    }
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); i++) {
        seen += buckets_[i];
        if (seen > target) {
            return std::min(bucket_upper(i), max_);
        }
    }
    return max_;
}

}  // namespace pulse
