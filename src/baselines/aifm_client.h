/**
 * @file
 * Cache+RPC baseline (AIFM-representative, paper section 7).
 *
 * AIFM keeps a data-structure-aware, object-granularity cache inside
 * the client library and falls back to remote execution on misses. The
 * paper restricts this system to the UPC hash-table workload on a
 * single memory node (AIFM supports neither complex indexes like
 * B+Trees nor distributed execution) and notes its TCP-based transport
 * costs it latency versus eRPC — both restrictions are mirrored here.
 *
 * Model: an LRU cache (PageCache) keyed by object id (the lookup key)
 * under a byte budget, each object at its own size. Hits pay a
 * local dereference; misses run the full traversal via the RPC runtime
 * configured with a TCP-like transport factor, then install the object.
 * Pointer-chasing workloads with uniform access get next to no reuse,
 * which is the paper's point ("data structure-aware caching is not
 * beneficial for pointer-chasing workloads").
 */
#ifndef PULSE_BASELINES_AIFM_CLIENT_H
#define PULSE_BASELINES_AIFM_CLIENT_H

#include <cstdint>

#include "baselines/page_cache.h"
#include "baselines/rpc_runtime.h"

namespace pulse::baselines {

/** Cache+RPC tunables. */
struct AifmConfig
{
    /** Object-cache capacity in bytes (scaled like the page cache). */
    Bytes cache_bytes = 64 * kMiB;

    /** Local hit cost (hashtable lookup + dereference). */
    Time hit_latency = nanos(120.0);

    /** Per-object bookkeeping overhead on install. */
    Time install_latency = nanos(90.0);
};

/** Statistics (the object cache keeps hits, misses and evictions). */
struct AifmStats
{
    Counter operations;
};

/** The Cache+RPC client. */
class AifmClient
{
  public:
    /**
     * @param rpc the underlying RPC runtime; configure it with a
     *            transport_overhead_factor > 1 (TCP-like stack).
     */
    AifmClient(sim::EventQueue& queue, RpcRuntime& rpc,
               const AifmConfig& config);

    /**
     * Run an operation. @p op.object_id / op.object_bytes identify the
     * cacheable object (e.g. the looked-up key and its value size);
     * object_bytes == 0 disables caching for this op.
     */
    void submit(offload::Operation&& op);

    const AifmStats& stats() const { return stats_; }
    const PageCache& cache() const { return cache_; }
    void
    reset_stats()
    {
        stats_ = AifmStats{};
        cache_.reset_stats();
    }
    const AifmConfig& config() const { return config_; }

  private:
    sim::EventQueue& queue_;
    RpcRuntime& rpc_;
    AifmConfig config_;
    PageCache cache_;  ///< object ids, object_bytes each
    AifmStats stats_;
};

}  // namespace pulse::baselines

#endif  // PULSE_BASELINES_AIFM_CLIENT_H
