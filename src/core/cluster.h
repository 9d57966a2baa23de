/**
 * @file
 * The pulse cluster façade: one object that assembles the simulated
 * rack (section 6's testbed) and exposes every compared system behind
 * a single submit interface.
 *
 * Components wired together:
 *   - discrete-event queue and rack network (clients + switch + memory
 *     nodes);
 *   - disaggregated memory with per-node DRAM channels (25 GB/s cap);
 *   - pulse accelerators (one per memory node) with their TCAMs, plus
 *     the switch's one-rule-per-node cur_ptr table (section 5);
 *   - the client offload engine (pulse / pulse-ACC per config);
 *   - all baselines: Cache-based (page cache), RPC, RPC-W, Cache+RPC.
 *
 * Benches pick a system via submitter(SystemKind) and drive it with
 * the closed-loop traffic generator; every system executes the same ISA operations
 * over the same memory bytes, so results are directly comparable.
 */
#ifndef PULSE_CORE_CLUSTER_H
#define PULSE_CORE_CLUSTER_H

#include <memory>
#include <string>
#include <vector>

#include "accel/accelerator.h"
#include "baselines/aifm_client.h"
#include "baselines/cache_client.h"
#include "baselines/rpc_runtime.h"
#include "check/check_config.h"
#include "check/checker.h"
#include "common/stats.h"
#include "faults/fault_plane.h"
#include "mem/allocator.h"
#include "mem/global_memory.h"
#include "mem/memory_channel.h"
#include "net/network.h"
#include "offload/offload_engine.h"
#include "placement/placement_config.h"
#include "placement/placement_plane.h"
#include "replication/replication_config.h"
#include "replication/replication_plane.h"
#include "serve/qos.h"
#include "serve/serve_config.h"
#include "sim/event_queue.h"
#include "trace/metrics_exporter.h"
#include "trace/trace.h"
#include "workloads/workloads.h"

namespace pulse::core {

/** Which execution system serves a submitted operation. */
enum class SystemKind {
    kPulse,     ///< accelerator offload (pulse or pulse-ACC per config)
    kCache,     ///< Cache-based (Fastswap-like page cache)
    kRpc,       ///< RPC on memory-node CPUs (eRPC-like)
    kRpcWimpy,  ///< RPC on down-clocked (wimpy) cores
    kCacheRpc,  ///< Cache+RPC (AIFM-like object cache + TCP transport)
};

/** Human-readable system name (bench tables). */
const char* system_name(SystemKind kind);

/** Whole-rack configuration. */
struct ClusterConfig
{
    std::uint32_t num_mem_nodes = 1;
    std::uint32_t num_clients = 1;
    Bytes node_capacity = 512 * kMiB;
    mem::AllocPolicy alloc_policy = mem::AllocPolicy::kPartitioned;

    /** Uniform-policy slab granularity (0 = per-allocation random;
     *  see ClusterAllocator). */
    Bytes uniform_chunk_bytes = 8 * kKiB;

    std::uint64_t seed = 42;

    /** Memory channels: 2 x 17 GB/s raw; the vendor interconnect IP
     *  caps the effective node bandwidth at 25 GB/s (section 6 +
     *  supp. Fig. 1b). */
    std::uint32_t channels_per_node = 2;
    Rate channel_raw_bw = gbps_bytes(17.0);
    double interconnect_efficiency = 12.5 / 17.0;

    accel::AccelConfig accel;
    offload::OffloadConfig offload;
    net::NetworkConfig network;  // endpoint counts filled in by Cluster
    baselines::CacheClientConfig cache;
    baselines::RpcConfig rpc;
    baselines::RpcConfig rpc_wimpy;
    baselines::AifmConfig aifm;

    /**
     * Fault-injection plan (chaos testing / robustness ablations). The
     * default is all-quiet: no FaultPlane is even constructed, so the
     * fault path is a strict no-op and healthy runs stay bit-identical
     * to a build without the fault plane.
     */
    faults::FaultConfig faults;

    /**
     * Per-request tracing (src/trace). Off by default: span recording
     * is synchronous and draws no randomness, so results are identical
     * either way, but the disabled path is a single branch.
     */
    trace::TraceConfig trace;

    /**
     * Correctness checking (src/check): golden differential oracle on
     * the pulse path and/or structural invariant checking. All off by
     * default — no Checker is constructed, no submitter is wrapped,
     * and no randomness or timing changes, so checker-off runs are
     * bit-identical to a build without the subsystem.
     */
    check::CheckConfig check;

    /**
     * Elastic placement plane (src/placement): hotness tracking, live
     * slab migration, online switch/TCAM reconfiguration. Off by
     * default — no plane is constructed, accelerators keep a null
     * placement pointer, and no stats keys are registered, so
     * placement-off runs stay bit-identical to a build without the
     * subsystem.
     */
    placement::PlacementConfig placement;

    /**
     * Fault-tolerance plane (src/replication): k-way slab replication,
     * heartbeat failure detection, automatic failover. Off by default
     * (replication factor 1) — no plane is constructed, accelerators
     * keep a null replication pointer, and no stats keys are
     * registered, so replication-off runs stay bit-identical to a
     * build without the subsystem.
     */
    replication::ReplicationConfig replication;

    /**
     * Multi-tenant serving plane (src/serve): per-tenant token-bucket
     * quotas, SLO classes with queue-depth caps and load shedding, and
     * WDRR admission weights. Off by default — no QosController is
     * constructed, accelerators keep a null serving pointer, and no
     * stats keys are registered, so serving-off runs stay bit-identical
     * to a build without the subsystem.
     */
    serve::ServeConfig serve;

    ClusterConfig();

    /**
     * Set the four planes' modes from PULSE_CHECK, PULSE_PLACEMENT,
     * PULSE_REPLICATION and PULSE_SERVING (DESIGN.md §11). Returns
     * false with @p error set, changing nothing, on a malformed knob.
     */
    bool apply_env_knobs(std::string* error);

    /** Configure pulse-ACC (section 7.2): continuations bounce through
     *  the client instead of the switch. */
    void set_pulse_acc(bool acc) { offload.switch_continuation = !acc; }
};

/** The assembled rack. */
class Cluster
{
  public:
    explicit Cluster(const ClusterConfig& config);

    sim::EventQueue& queue() { return queue_; }
    mem::GlobalMemory& memory() { return *memory_; }
    mem::ClusterAllocator& allocator() { return *allocator_; }
    net::Network& network() { return *network_; }

    /** Every in-flight traversal packet (the network's arena). */
    const net::PacketArena& packets() const
    {
        return network_->packets();
    }
    accel::Accelerator& accelerator(NodeId node);
    mem::ChannelSet& channels(NodeId node);

    /** Offload engine of client @p client (one per CPU node). */
    offload::OffloadEngine& offload_engine(ClientId client = 0);
    baselines::CacheClient& cache_client() { return *cache_; }
    baselines::RpcRuntime& rpc(bool wimpy = false);

    /** The TCP-transport RPC runtime behind Cache+RPC. */
    baselines::RpcRuntime& rpc_tcp() { return *rpc_tcp_; }

    baselines::AifmClient& aifm() { return *aifm_; }

    /** The fault-injection plane; nullptr when faults are all-quiet. */
    faults::FaultPlane* fault_plane() { return fault_plane_.get(); }

    /** The per-cluster span tracer (always present; may be disabled). */
    trace::Tracer& tracer() { return tracer_; }
    const trace::Tracer& tracer() const { return tracer_; }

    /** The checking subsystem; nullptr when config.check is all-off. */
    check::Checker* checker() { return checker_.get(); }

    /** The placement plane; nullptr when config.placement is off. */
    placement::PlacementPlane* placement_plane()
    {
        return placement_plane_.get();
    }

    /** The replication plane; nullptr when config.replication is off. */
    replication::ReplicationPlane* replication_plane()
    {
        return replication_plane_.get();
    }

    /** The serving plane's QoS controller; nullptr when off. */
    serve::QosController* serve_plane() { return serve_plane_.get(); }

    /**
     * Drain the event queue, then run the quiesce-time structural
     * audit (conservation, leaks, route agreement). No-op returning 0
     * when checking is off. Returns the total violation count.
     */
    std::uint64_t verify_quiesce();

    const ClusterConfig& config() const { return config_; }

    /**
     * Submit entry point for @p kind (bind to the traffic generator).
     * @p client selects the issuing CPU node for pulse; the baseline
     * systems are single-client (client 0), as in the paper's testbed.
     */
    workloads::SubmitFn submitter(SystemKind kind, ClientId client = 0);

    /** Reset every statistic (bandwidth, component busy, caches). */
    void reset_stats();

    /**
     * Per-memory-node load imbalance: max/mean of the accelerators'
     * request counts since the last reset_stats(). 1.0 means perfectly
     * balanced (and is also returned for an idle cluster); the Zipf
     * skew the placement plane fights shows up here directly.
     */
    double node_load_imbalance() const;

    /** Per-node accelerator request counts since the last reset. */
    std::vector<std::uint64_t> node_request_counts() const;

    /** Aggregate achieved memory bandwidth over @p window (bytes/s). */
    Rate memory_bandwidth(Time window) const;

    /** Aggregate effective memory-bandwidth capacity (bytes/s). */
    Rate memory_bandwidth_capacity() const;

    /** Client network traffic (tx + rx bytes) since the last reset. */
    Bytes client_network_bytes() const;

    /** Register all component stats under their canonical names. */
    void register_stats(StatRegistry& registry);

    /**
     * One-call unified metrics snapshot: every registered component
     * stat plus tracer meta-counters, ready for JSON/CSV export.
     */
    void export_metrics(trace::MetricsExporter& exporter,
                        const std::string& prefix = "");

    /**
     * Checkpoint/restore (src/core/checkpoint.cc): serialize the full
     * simulation state — clock + telemetry counters, network, memory
     * contents, allocator, channels, accelerators, offload engines —
     * so long scenarios can fork from a warmed snapshot instead of
     * replaying the build + warmup phases.
     *
     * Preconditions (asserted, both directions): the cluster is
     * *quiesced* — the event queue is empty and no traversal is in
     * flight — the optional planes (faults, checker, placement,
     * replication, serving) are off, no migration remap exists and
     * tracing is off; their state machines hold type-erased callbacks
     * and are deliberately outside the snapshot.
     *
     * restore_checkpoint applies a snapshot taken on a cluster built
     * from a ClusterConfig with the same fingerprint (topology,
     * policies and seed); the restored run then continues
     * bit-identically to the uninterrupted one. Blob contents never
     * abort the process: a truncated, corrupted or mismatched blob
     * returns false with @p error naming the section tag and byte
     * offset. A failed restore leaves the cluster partly overwritten
     * and unusable; the caller discards it.
     */
    std::vector<std::uint8_t> save_checkpoint();
    bool restore_checkpoint(const std::vector<std::uint8_t>& bytes,
                            std::string* error);

  private:
    /** The one checkpoint layout, shared by save and restore. */
    void checkpoint(StateIo& io);

    ClusterConfig config_;
    sim::EventQueue queue_;
    trace::Tracer tracer_;
    std::unique_ptr<mem::GlobalMemory> memory_;
    std::unique_ptr<mem::ClusterAllocator> allocator_;
    std::unique_ptr<net::Network> network_;
    std::unique_ptr<faults::FaultPlane> fault_plane_;
    std::unique_ptr<check::Checker> checker_;
    std::unique_ptr<placement::PlacementPlane> placement_plane_;
    std::unique_ptr<replication::ReplicationPlane> replication_plane_;
    std::unique_ptr<serve::QosController> serve_plane_;
    std::vector<std::unique_ptr<mem::ChannelSet>> channels_;
    std::vector<std::unique_ptr<accel::Accelerator>> accelerators_;
    std::vector<std::unique_ptr<offload::OffloadEngine>> offload_;
    std::unique_ptr<baselines::CacheClient> cache_;
    std::unique_ptr<baselines::RpcRuntime> rpc_;
    std::unique_ptr<baselines::RpcRuntime> rpc_wimpy_;
    std::unique_ptr<baselines::RpcRuntime> rpc_tcp_;  ///< Cache+RPC leg
    std::unique_ptr<baselines::AifmClient> aifm_;
};

}  // namespace pulse::core

#endif  // PULSE_CORE_CLUSTER_H
