/**
 * @file
 * Deterministic pseudo-random number generation for workloads and tests.
 *
 * Provides a small, fast xoshiro256** engine plus the distributions the
 * evaluation needs: uniform integers/reals and the Zipfian distribution
 * used by YCSB-style key popularity (Gray et al.'s rejection-free
 * construction, as used in the YCSB reference generator).
 */
#ifndef PULSE_COMMON_RANDOM_H
#define PULSE_COMMON_RANDOM_H

#include <cstdint>

namespace pulse {

class StateIo;

/**
 * xoshiro256** PRNG. Deterministic for a given seed, which keeps every
 * benchmark and test reproducible run-to-run.
 */
class Rng
{
  public:
    /** Seed via SplitMix64 expansion of @p seed. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    std::uint64_t next_u64();

    /** Exactly uniform integer in [0, bound) via Lemire's debiased
     *  multiply-shift (rejection removes the modulo bias that the
     *  bare multiply-shift carries for bounds not dividing 2^64). */
    std::uint64_t next_below(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t next_range(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1). */
    double next_double();

    /** Bernoulli trial with probability @p p. */
    bool next_bool(double p);

    /** Checkpoint support (common/serial.h): the raw engine state. */
    void checkpoint(StateIo& io);

  private:
    std::uint64_t state_[4];
};

/**
 * Zipfian distribution over [0, n) with skew parameter theta, following
 * the YCSB generator. theta = 0.99 is the YCSB default; the paper's UPC
 * and TC workloads use uniform distributions, but Zipf is provided for
 * the sensitivity studies and for generality of the workload library.
 */
class ZipfGenerator
{
  public:
    /** Prepare a generator over @p n items with skew @p theta. */
    ZipfGenerator(std::uint64_t n, double theta);

    /** Sample an item rank; rank 0 is the most popular. */
    std::uint64_t next(Rng& rng);

    /** Number of items. */
    std::uint64_t size() const { return n_; }

  private:
    std::uint64_t n_;
    double theta_;
    double alpha_;
    double zetan_;
    double eta_;
    double zeta2theta_;
};

}  // namespace pulse

#endif  // PULSE_COMMON_RANDOM_H
