/**
 * @file
 * One benchmark workload: the cluster it runs on, the data structure
 * loaded into it, the operation stream generated from the seed, and the
 * host-side check of every completion.
 */
#ifndef PERFBENCH_RIG_H
#define PERFBENCH_RIG_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "core/cluster.h"
#include "ds/bptree.h"
#include "spans.h"
#include "workloads/workloads.h"

namespace perfbench {

enum class WorkloadKind { kUpc, kTc, kTsv, kUpcPlanes, kUpcElastic };

/**
 * Fixed sizing of one workload. Phases are sized in operations, never
 * in host time, so every simulated number depends only on the seed.
 */
struct WorkloadSpec
{
    const char* name;
    WorkloadKind kind;
    std::uint64_t warmup_ops;    ///< set-up: saturated ops before measuring
    std::uint64_t latency_ops;   ///< latency phase, 1 outstanding op
    std::uint64_t ramp_ops;      ///< saturation completions before the window
    std::uint64_t window_ops;    ///< saturation completions measured
    std::uint32_t latency_chunk; ///< completions per host-timing chunk
    std::uint32_t sat_chunk;     ///< (ramp_ops and window_ops are multiples)
};

/** The spec named @p name, or nullptr. */
const WorkloadSpec* find_spec(const std::string& name);

/** Names of every workload, for usage messages. */
std::string spec_names();

/** Outstanding operations per memory node in the saturation phase. */
inline constexpr std::uint32_t kSatPerNode = 512;
inline constexpr std::uint32_t kMemNodes = 4;

/** What one issued operation asked for (enough to check its answer). */
struct OpRecord
{
    enum class Kind : std::uint8_t { kFind, kUpdate, kScan, kAggregate };
    Kind kind = Kind::kFind;
    pulse::ds::AggKind agg = pulse::ds::AggKind::kSum;
    std::uint64_t a = 0;  ///< key / scan start key / window lo
    std::uint64_t b = 0;  ///< scan length / window hi
};

/** A parsed completion, kept until it is checked. */
struct Outcome
{
    OpRecord op;
    bool done = false;        ///< kDone and not timed out
    bool found = false;       ///< find/update hit; scan/agg complete flag
    std::uint64_t w0 = 0;     ///< value hash / count
    std::uint64_t w1 = 0;     ///< value word / fold / aggregate
    std::uint64_t w2 = 0;     ///< scan last key
};

/** Everything one workload needs, built from (spec, seed). */
class Rig
{
  public:
    /**
     * Build the cluster (span core.build) and load the data structure
     * (ds.load). @p trace turns on the span tracer with a ring of
     * @p ring_capacity spans.
     */
    Rig(const WorkloadSpec& spec, std::uint64_t seed, bool trace,
        std::size_t ring_capacity, SpanLog& spans);

    Rig(const Rig&) = delete;
    Rig& operator=(const Rig&) = delete;

    pulse::core::Cluster& cluster() { return *cluster_; }
    const WorkloadSpec& spec() const { return spec_; }

    /** Host seconds (thread CPU) spent constructing the cluster. */
    double build_s() const { return build_s_; }

    /** Host seconds (thread CPU) spent loading the data structure. */
    double load_s() const { return load_s_; }

    /** Next operation of the seeded stream; fills @p record. */
    pulse::offload::Operation next(OpRecord* record);

    /** Next operation of a second seeded stream (ISA micro-benchmark
     *  inputs; does not disturb the measured stream). */
    pulse::offload::Operation sample(OpRecord* record);

    /** Decode @p completion of @p record (the client's own parse). */
    Outcome parse(const OpRecord& record,
                  const pulse::offload::Completion& completion) const;

    /** Check a parsed completion against the host-side reference. */
    bool verify(const Outcome& outcome) const;

    /**
     * After quiesce: every key an update wrote must hold V(key).
     * Returns the number of keys that do not.
     */
    std::uint64_t verify_updates() const;

  private:
    pulse::offload::Operation make(pulse::Rng& rng, OpRecord* record);
    void update_value(std::uint64_t key, std::uint8_t* out) const;
    std::uint64_t built_hash(std::uint64_t key) const;
    std::uint64_t update_hash(std::uint64_t key) const;
    std::optional<std::vector<std::uint8_t>> read_value(
        std::uint64_t key) const;

    const WorkloadSpec& spec_;
    std::uint64_t update_salt_;
    std::unique_ptr<pulse::core::Cluster> cluster_;
    std::unique_ptr<pulse::apps::UpcApp> upc_;
    std::unique_ptr<pulse::apps::TcApp> tc_;
    std::unique_ptr<pulse::apps::TsvApp> tsv_;
    std::optional<pulse::workloads::YcsbC> ycsb_c_;
    std::optional<pulse::workloads::YcsbE> ycsb_e_;
    std::optional<pulse::workloads::TsvQueries> tsv_queries_;
    pulse::Rng rng_;
    pulse::Rng sample_rng_;
    std::vector<std::uint8_t> value_buf_;  ///< upc value size
    std::vector<bool> updated_;  ///< by key index (upc-planes)
    double build_s_ = 0.0;
    double load_s_ = 0.0;
};

/** Thread CPU time in seconds (the simulating thread's host time). */
double thread_cpu_s();

/** FNV-1a over @p len bytes, continuing from @p h. */
std::uint64_t fnv1a(const void* data, std::size_t len,
                    std::uint64_t h = 0xcbf29ce484222325ull);

}  // namespace perfbench

#endif  // PERFBENCH_RIG_H
