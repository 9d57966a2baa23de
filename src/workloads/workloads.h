/**
 * @file
 * Workload generators for the paper's three applications (section 7,
 * Table 2):
 *
 *   - UPC (user-profile cache): YCSB Workload C — uniform key lookups
 *     on a hash table with 8 B keys / 240 B values;
 *   - TC (threaded conversations): YCSB Workload E — uniform-start
 *     scans on a B+Tree with out-of-line 240 B records;
 *   - TSV (time-series visualization): windowed aggregations (random
 *     SUM/AVG/MIN/MAX per request) over a uPMU-style voltage trace
 *     stored in a time-indexed B+Tree.
 *
 * The uPMU trace is synthetic (the paper's Open uPMU data set is not
 * redistributable here): fixed-rate samples of a sinusoidally drifting
 * voltage with noise, which preserves what the experiments exercise —
 * chronologically ordered keys and window-sized pointer traversals.
 */
#ifndef PULSE_WORKLOADS_WORKLOADS_H
#define PULSE_WORKLOADS_WORKLOADS_H

#include <cstdint>
#include <functional>
#include <vector>

#include "common/random.h"
#include "ds/bptree.h"
#include "offload/offload_engine.h"

namespace pulse::workloads {

/** Any system's operation entry point. */
using SubmitFn = std::function<void(offload::Operation&&)>;

/** Produces the @p index-th operation (without a done callback). */
using OpFactory = std::function<offload::Operation(std::uint64_t)>;

/** Key of record index @p i (shared by builders and generators). */
constexpr std::uint64_t
key_of(std::uint64_t index)
{
    return (index + 1) << 3;
}

/** YCSB Workload C: point lookups. */
class YcsbC
{
  public:
    /**
     * @param num_keys records in the table
     * @param zipf_theta 0 = uniform (the paper's UPC setting)
     * @param zipf_scatter true scatters Zipf ranks across the key
     *        space (popularity uncorrelated with index, as after
     *        hashing); false returns raw ranks, so the hottest keys
     *        are the lowest indices — skew then lands on whichever
     *        partition holds them (the placement ablations)
     */
    YcsbC(std::uint64_t num_keys, double zipf_theta = 0.0,
          bool zipf_scatter = true);

    /** Next record index to look up. */
    std::uint64_t next_index(Rng& rng);

    std::uint64_t num_keys() const { return num_keys_; }

  private:
    std::uint64_t num_keys_;
    double theta_;
    bool scatter_;
    std::unique_ptr<ZipfGenerator> zipf_;
};

/** YCSB Workload E: short range scans. */
class YcsbE
{
  public:
    struct Scan
    {
        std::uint64_t start_index = 0;
        std::uint32_t length = 1;
    };

    /**
     * @param num_keys records in the index
     * @param max_scan_length uniform scan length in [1, max]; the
     *        paper-matching default (127) averages 64 entries
     */
    YcsbE(std::uint64_t num_keys, std::uint32_t max_scan_length = 127);

    Scan next(Rng& rng);

    std::uint64_t num_keys() const { return num_keys_; }

  private:
    std::uint64_t num_keys_;
    std::uint32_t max_scan_length_;
};

/** Synthetic uPMU-style time-series trace. */
class PmuTrace
{
  public:
    /**
     * @param num_samples trace length
     * @param sample_period_ms sampling period (default 15.625 ms =
     *        64 Hz, which lands the paper's iteration counts with
     *        12-entry leaves)
     */
    PmuTrace(std::uint64_t num_samples, double sample_period_ms = 15.625,
             std::uint64_t seed = 99);

    /** Entries (timestamp-ms key, signed milli-volt payload). */
    const std::vector<ds::BPTreeEntry>& entries() const
    {
        return entries_;
    }

    std::uint64_t first_timestamp() const;
    std::uint64_t last_timestamp() const;
    double sample_period_ms() const { return sample_period_ms_; }

  private:
    double sample_period_ms_;
    std::vector<ds::BPTreeEntry> entries_;
};

/** TSV query generator: windowed aggregations of one resolution. */
class TsvQueries
{
  public:
    struct Query
    {
        std::uint64_t lo = 0;
        std::uint64_t hi = 0;
        ds::AggKind kind = ds::AggKind::kSum;
    };

    /**
     * @param trace the built trace
     * @param window_seconds aggregation window (7.5 / 15 / 30 / 60 in
     *        the paper)
     */
    TsvQueries(const PmuTrace& trace, double window_seconds);

    /** Random window with a random aggregation kind (paper: the
     *  client picks sum/average/min/max per request; average is
     *  sum+count finished client-side, so it draws kSum here). */
    Query next(Rng& rng);

  private:
    std::uint64_t first_ts_;
    std::uint64_t span_ms_;
    std::uint64_t window_ms_;
};

}  // namespace pulse::workloads

#endif  // PULSE_WORKLOADS_WORKLOADS_H
