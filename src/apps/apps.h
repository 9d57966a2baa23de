/**
 * @file
 * The paper's three evaluation applications (section 7), packaged as
 * reusable setups: each builds its data structure into a cluster's
 * disaggregated memory and exposes an operation factory for the
 * closed-loop traffic generator (serve::run_closed_loop). Scales are configurable; the defaults are scaled-
 * down versions of the paper's (0.5 B keys -> hundreds of thousands)
 * with the client cache scaled proportionally (DESIGN.md).
 */
#ifndef PULSE_APPS_APPS_H
#define PULSE_APPS_APPS_H

#include <memory>

#include "common/random.h"
#include "core/cluster.h"
#include "ds/bptree.h"
#include "ds/hash_table.h"
#include "workloads/workloads.h"

namespace pulse::apps {

/** Common scale knobs. */
struct AppScale
{
    /** UPC: records in the user-profile cache. */
    std::uint64_t upc_keys = 200'000;

    /** UPC: average chain length (the paper forces ~100 visited
     *  nodes per lookup via a high load factor). */
    std::uint64_t upc_chain = 192;

    /** TC: records in the conversation index. */
    std::uint64_t tc_keys = 150'000;

    /** TSV: trace samples (64 Hz -> ~2 hours by default). */
    std::uint64_t tsv_samples = 450'000;

    /** Fraction of the data set mirrored by client caches (the paper
     *  uses 2 GB against ~120 GB, i.e. ~1.7%). */
    double cache_fraction = 0.02;

    /** UPC: Zipf skew of the lookup stream (0 = uniform, the paper's
     *  YCSB-C setting; 0.99 = the standard YCSB skew). */
    double zipf_theta = 0.0;

    /** UPC: scatter Zipf ranks over the key space (hashed-popularity
     *  model). false keeps hot ranks on the lowest indices, so skew
     *  piles onto one partition — the placement-ablation setup. */
    bool zipf_scatter = true;

    /** UPC: sequential-index bucketing + bucket-major build, so each
     *  chain's nodes are physically contiguous and hot chains form
     *  migratable slabs (see ds::HashTableConfig). */
    bool sequential_buckets = false;
};

/** Data-set size estimates, for sizing client caches up front. */
Bytes upc_data_bytes(const AppScale& scale);
Bytes tc_data_bytes(const AppScale& scale);
Bytes tsv_data_bytes(const AppScale& scale);

/** User-profile cache: YCSB-C lookups on the chained hash table. */
class UpcApp
{
  public:
    UpcApp(core::Cluster& cluster, const AppScale& scale,
           std::uint64_t seed = 1);

    /** Factory for the closed loop (uniform lookups of existing keys). */
    workloads::OpFactory factory();

    ds::HashTable& table() { return *table_; }
    std::uint64_t num_keys() const { return num_keys_; }

  private:
    std::unique_ptr<ds::HashTable> table_;
    workloads::YcsbC generator_;
    Rng rng_;
    std::uint64_t num_keys_;
};

/** Threaded conversations: YCSB-E scans on the B+Tree. */
class TcApp
{
  public:
    /**
     * @param uniform_alloc true = glibc-like uniform placement
     *        (supp. Fig. 2's "random" policy) instead of partitioned
     */
    TcApp(core::Cluster& cluster, const AppScale& scale,
          bool uniform_alloc = false, std::uint64_t seed = 2);

    workloads::OpFactory factory();

    ds::BPTree& tree() { return *tree_; }

  private:
    std::unique_ptr<ds::BPTree> tree_;
    workloads::YcsbE generator_;
    Rng rng_;
};

/** Time-series visualization: windowed aggregations on the B+Tree. */
class TsvApp
{
  public:
    TsvApp(core::Cluster& cluster, const AppScale& scale,
           double window_seconds, bool uniform_alloc = false,
           std::uint64_t seed = 3);

    workloads::OpFactory factory();

    ds::BPTree& tree() { return *tree_; }
    const workloads::PmuTrace& trace() const { return *trace_; }

  private:
    std::unique_ptr<workloads::PmuTrace> trace_;
    std::unique_ptr<ds::BPTree> tree_;
    std::unique_ptr<workloads::TsvQueries> queries_;
    Rng rng_;
};

}  // namespace pulse::apps

#endif  // PULSE_APPS_APPS_H
