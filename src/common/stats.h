/**
 * @file
 * Lightweight statistics counters for simulator components.
 *
 * Components own named Counter/Accumulator members and register them in a
 * StatRegistry so benchmarks can dump every statistic uniformly. There is
 * deliberately no global registry: each Cluster owns one, keeping
 * concurrent simulations independent.
 */
#ifndef PULSE_COMMON_STATS_H
#define PULSE_COMMON_STATS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pulse {

class StateIo;

/** Monotonic event counter (requests served, packets routed, ...). */
class Counter
{
  public:
    void increment(std::uint64_t by = 1) { value_ += by; }
    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }

    /** Checkpoint support (common/serial.h). */
    void checkpoint(StateIo& io);

  private:
    std::uint64_t value_ = 0;
};

/** Sum of double-valued samples with count (e.g. bytes moved, joules). */
class Accumulator
{
  public:
    void
    add(double sample)
    {
        sum_ += sample;
        count_++;
    }

    void
    reset()
    {
        sum_ = 0.0;
        count_ = 0;
    }

    double sum() const { return sum_; }
    std::uint64_t count() const { return count_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }

    /** Checkpoint support (common/serial.h): sum, then count. */
    void checkpoint(StateIo& io);

  private:
    double sum_ = 0.0;
    std::uint64_t count_ = 0;
};

/**
 * Per-cluster registry mapping hierarchical names
 * ("node0.accel.mem_pipeline.loads") to counters owned by components.
 */
class StatRegistry
{
  public:
    /** Register a counter; the registry does not take ownership. */
    void register_counter(const std::string& name, const Counter* counter);

    /** Register an accumulator; the registry does not take ownership. */
    void register_accumulator(const std::string& name,
                              const Accumulator* acc);

    /** Snapshot all registered statistics as name → value. */
    std::map<std::string, double> snapshot() const;

    /** Render a sorted human-readable dump. */
    std::string dump() const;

  private:
    std::map<std::string, const Counter*> counters_;
    std::map<std::string, const Accumulator*> accumulators_;
};

}  // namespace pulse

#endif  // PULSE_COMMON_STATS_H
