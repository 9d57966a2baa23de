/**
 * @file
 * Latency histogram with percentile queries.
 *
 * Log-bucketed (HdrHistogram-style) so that nanosecond accelerator events
 * and millisecond page-fault chains share one structure with bounded
 * relative error. Used by every benchmark to report avg/p50/p99.
 */
#ifndef PULSE_COMMON_HISTOGRAM_H
#define PULSE_COMMON_HISTOGRAM_H

#include <cstdint>
#include <vector>

#include "common/units.h"

namespace pulse {

class StateIo;

/**
 * Histogram over non-negative Time samples, with ~3% relative bucket
 * error. Also tracks exact sum/min/max for accurate means.
 */
class Histogram
{
  public:
    Histogram();

    /** Record one sample. Negative samples are clamped to zero. */
    void add(Time sample);

    /** Merge another histogram into this one. */
    void merge(const Histogram& other);

    /** Remove all samples. */
    void reset();

    /** Number of recorded samples. */
    std::uint64_t count() const { return count_; }

    /** Arithmetic mean (0 when empty). */
    Time mean() const;

    /** Smallest recorded sample (0 when empty). */
    Time min() const { return count_ ? min_ : 0; }

    /** Largest recorded sample (0 when empty). */
    Time max() const { return count_ ? max_ : 0; }

    /** Sum of all samples. */
    Time sum() const { return sum_; }

    /**
     * Value at quantile @p q in [0, 1]; e.g. 0.5 for median, 0.99 for
     * p99. Nearest-rank semantics over rank floor(q * (count - 1)):
     * the extreme ranks return the exact tracked min()/max(); interior
     * ranks return a bucket-representative value (upper bound of the
     * bucket containing the rank, clamped to max()), so a reported
     * percentile never exceeds the largest recorded sample.
     */
    Time percentile(double q) const;

    /**
     * Checkpoint support (common/serial.h): buckets plus the exact
     * count/sum/min/max, so a restored histogram reports bit-identical
     * percentiles to the uninterrupted run.
     */
    void checkpoint(StateIo& io);

  private:
    static constexpr int kSubBucketBits = 5;  // 32 sub-buckets per octave

    static std::size_t bucket_index(Time sample);
    static Time bucket_upper(std::size_t index);

    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    Time sum_ = 0;
    Time min_ = 0;
    Time max_ = 0;
};

}  // namespace pulse

#endif  // PULSE_COMMON_HISTOGRAM_H
