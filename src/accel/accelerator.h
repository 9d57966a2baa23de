/**
 * @file
 * The pulse accelerator at a memory node (paper section 4.2).
 *
 * Structure mirrors Fig. 2: a hardware network stack parses traversal
 * packets; a scheduler assigns each request to a core workspace; every
 * core couples one memory-access pipeline (TCAM translation + protection
 * + aggregated 256 B load through the node's memory channels) with eta
 * logic pipelines (the ISA interpreter, costed per instruction) and
 * 2*eta workspaces, executing iterators in the staggered schedule of
 * Fig. 3. Iterations alternate memory and logic phases until NEXT_ITER
 * stops (RETURN / fault / iteration cap) or cur_ptr leaves the node, at
 * which point a response packet carrying cur_ptr + scratch_pad goes back
 * through the network stack — to the client, or via the switch to the
 * next node (section 5).
 *
 * All functional effects (loads, stores) hit the node's real simulated
 * DRAM, so accelerator results are actual traversal results.
 */
#ifndef PULSE_ACCEL_ACCELERATOR_H
#define PULSE_ACCEL_ACCELERATOR_H

#include <memory>
#include <unordered_set>
#include <vector>

#include "accel/accel_config.h"
#include "accel/admission_queue.h"
#include "accel/replay_window.h"
#include "check/invariants.h"
#include "common/serial.h"
#include "common/stats.h"
#include "faults/fault_plane.h"
#include "isa/program.h"
#include "mem/global_memory.h"
#include "mem/memory_channel.h"
#include "mem/range_tcam.h"
#include "net/network.h"
#include "placement/placement_plane.h"
#include "replication/replication_plane.h"
#include "sim/event_queue.h"
#include "trace/trace.h"

namespace pulse::serve {
class QosController;
}

namespace pulse::accel {

/** Aggregated accelerator statistics (drives Figs. 6, 7, 9). */
struct AccelStats
{
    Counter requests_received;
    Counter responses_sent;
    Counter forwards_sent;        ///< kNotLocal continuations emitted
    Counter iterations;
    Counter loads;
    Counter stores;
    Counter cas_ops;  ///< successful atomic swaps (extension)
    Counter protection_faults;
    Counter queue_drops;
    Counter duplicates_suppressed;  ///< dups of an executing visit
    Counter replays_sent;           ///< cached responses replayed

    /** Busy-time integrals for utilization/energy (picoseconds). */
    Accumulator net_stack_time;
    Accumulator scheduler_time;
    Accumulator mem_pipeline_time;   ///< latency portion per load
    Accumulator logic_pipeline_time; ///< per-iteration latency (Fig 9)
    Accumulator logic_busy_time;     ///< occupancy integral (energy)
    Accumulator workspace_wait_time; ///< admission-queue wait per req
};

/** One memory node's accelerator. */
class Accelerator
{
  public:
    /**
     * @param queue    shared event queue
     * @param network  rack fabric (this attaches itself as the node's
     *                 traversal sink)
     * @param memory   cluster memory (functional data path)
     * @param channels the node's DRAM channels (bandwidth model)
     * @param node     which memory node this accelerator serves
     * @param config   timing/shape parameters
     */
    Accelerator(sim::EventQueue& queue, net::Network& network,
                mem::GlobalMemory& memory, mem::ChannelSet& channels,
                NodeId node, const AccelConfig& config);

    /** The node-local translation/protection TCAM. */
    mem::RangeTcam& tcam() { return tcam_; }
    const mem::RangeTcam& tcam() const { return tcam_; }

    /** Dedup window (the placement plane hands it off at cutovers). */
    ReplayWindow& replay_window() { return replay_; }

    /** Statistics. */
    const AccelStats& stats() const { return stats_; }

    /** Reset statistics (not in-flight state). */
    void reset_stats();

    /** Register statistics under @p prefix. */
    void register_stats(const std::string& prefix,
                        StatRegistry& registry);

    /** Requests currently executing or queued. */
    std::size_t inflight() const;

    /**
     * Consult @p plane for this node's slow-factor windows (graceful
     * degradation: all pipeline latencies stretch by the factor while
     * a kSlow window is active). nullptr (the default) is a no-op.
     */
    void set_fault_plane(const faults::FaultPlane* plane)
    {
        fault_plane_ = plane;
    }

    /**
     * Attach the placement plane (nullptr detaches). While attached,
     * every translated load is reported for hotness sampling, and a
     * store/CAS whose TCAM translation misses because a migration
     * cutover raced the traversal is forwarded to the slab's current
     * owner instead of faulting (the dual-residency window). Detached
     * — the default — this path is a single null check.
     */
    void set_placement(placement::PlacementPlane* plane)
    {
        placement_ = plane;
    }

    /**
     * Attach the replication plane (nullptr detaches). While attached,
     * every store/CAS the accelerator applies is mirrored into live
     * replicas (write-synchronous k-way replication) and every replay-
     * window transition is mirrored into the other nodes' windows, so
     * exactly-once survives this node dying mid-request. Detached —
     * the default — each hook is a single null check.
     */
    void set_replication(replication::ReplicationPlane* plane)
    {
        replication_ = plane;
    }

    /**
     * Attach the serving plane's QoS admission controller (nullptr
     * detaches — the default, and a single null check per packet).
     * While attached, fresh root requests are charged against their
     * tenant's traversal quota between the scheduler stage and
     * placement, queued requests respect per-SLO-class depth caps
     * (overflow is shed with a typed kRejected response), and the
     * admission queue's kWeightedDrr policy reads tenant weights from
     * the controller.
     */
    void set_serving(serve::QosController* serving);

    /**
     * Re-entry point for a quota-throttled packet the QosController
     * parked and released: continues at placement (the net-stack and
     * scheduler stages were already paid on the way in) without being
     * charged again.
     */
    void readmit(net::PacketHandle packet);

    /**
     * Attach the cluster's span tracer (nullptr detaches). Every
     * stats_ busy-time addition then also records a span for sampled
     * packets, so trace-derived decompositions can be cross-checked
     * against the accumulator-based accounting exactly.
     */
    void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

    /**
     * Attach an invariant registry (nullptr detaches). While attached,
     * every visit that begins executing is recorded, and a second
     * execution of the same (request id, visit) — which the replay
     * window should have suppressed or replayed — is reported as a
     * duplicate-execution violation.
     */
    void set_invariants(check::InvariantRegistry* registry)
    {
        invariants_ = registry;
    }

    const AccelConfig& config() const { return config_; }

    /**
     * Checkpoint support (core/checkpoint.cc): requires a quiesced
     * accelerator (no queued or executing requests). The replay window
     * is deliberately not serialized — at quiesce every client
     * operation has completed, so no retransmit of a recorded visit can
     * arrive after restore, and new visits classify as kNew.
     */
    void checkpoint(StateIo& io);

    /** Context-pool telemetry (bench_wallclock's visit-pool row). */
    std::uint64_t contexts_created() const { return contexts_created_; }

    /**
     * Host prefetches of node memory issued ahead of a load
     * (bench_wallclock's prefetch row). Host telemetry, like
     * contexts_created(): outside AccelStats and the checkpoint.
     */
    std::uint64_t prefetches() const { return prefetches_; }

  private:
    /** One in-flight traversal bound to a workspace. */
    struct Context
    {
        /** The request being executed (owned; released with the
         *  context). */
        net::PacketHandle packet;
        isa::Workspace workspace;
        std::uint64_t iterations_this_visit = 0;
        /** iterations_done when the packet arrived: the visit key. */
        std::uint64_t arrival_iterations = 0;
    };

    /** One accelerator core (Fig. 2). */
    struct Core
    {
        Time mem_pipe_free = 0;               // next load issue slot
        std::vector<Time> logic_free;         // per logic pipeline
        std::vector<std::unique_ptr<Context>> workspaces;
    };

    /**
     * Pop a recycled Context (or allocate the pool's next one). The
     * steady state recycles: contexts only live in workspace slots, so
     * the pool never exceeds num_cores * workspaces_per_core entries.
     */
    std::unique_ptr<Context> acquire_context();

    /**
     * Release a finished context's request packet and return the
     * context to the pool.
     */
    void release_context(std::unique_ptr<Context> context);

    void on_packet(net::PacketHandle packet);
    void admit(net::PacketHandle packet);
    void place(net::PacketHandle packet);
    void shed_reject(net::PacketHandle packet);
    void forget_visit(const ReplayWindow::Key& key);
    bool try_dispatch(net::PacketHandle packet);
    void start_memory_phase(CoreId core, WorkspaceId ws);
    void prefetch_load(VirtAddr ptr, std::uint32_t load_bytes);
    void start_logic_phase(CoreId core, WorkspaceId ws, Time mem_done);
    void finish(CoreId core, WorkspaceId ws, isa::TraversalStatus status,
                isa::ExecFault fault);
    void send_response(Context& context, isa::TraversalStatus status,
                       isa::ExecFault fault);

    /** Stretch @p t by the node's current slow factor (1.0 = as-is). */
    Time scaled(Time t) const;

    /** True when spans should be recorded for @p packet. */
    bool
    tracing(const net::TraversalPacket& packet) const
    {
        return tracer_ != nullptr && tracer_->enabled() &&
               packet.trace.sampled;
    }

    /** Record one span attributed to this node. */
    void
    record_span(const net::TraversalPacket& packet,
                trace::SpanKind kind, Time start, Time duration,
                std::uint64_t detail = 0)
    {
        tracer_->record({packet.id, kind, trace::Location::kMemNode,
                         node_, start, duration, detail});
    }

    sim::EventQueue& queue_;
    net::Network& network_;
    net::PacketArena& packets_;
    mem::GlobalMemory& memory_;
    mem::ChannelSet& channels_;
    NodeId node_;
    AccelConfig config_;
    mem::RangeTcam tcam_;
    std::vector<Core> cores_;
    AdmissionQueue pending_;
    ReplayWindow replay_;
    const faults::FaultPlane* fault_plane_ = nullptr;
    placement::PlacementPlane* placement_ = nullptr;
    replication::ReplicationPlane* replication_ = nullptr;
    trace::Tracer* tracer_ = nullptr;
    serve::QosController* serving_ = nullptr;
    check::InvariantRegistry* invariants_ = nullptr;
    /** Visits that began executing (only tracked while checking). */
    std::unordered_set<ReplayWindow::Key, ReplayWindow::KeyHash>
        executed_visits_;
    /**
     * Context freelist: finished visits park their Context here instead
     * of freeing it, so the dispatch hot path stops allocating once the
     * pool is warm.
     */
    std::vector<std::unique_ptr<Context>> context_pool_;
    std::uint64_t contexts_created_ = 0;
    std::uint64_t prefetches_ = 0;
    /**
     * Persistent CAS functor for the logic phase. Captures only `this`
     * (fits std::function's inline buffer); per-iteration operands
     * travel in cas_base_/cas_fault_ so no closure is rebuilt — the
     * old per-iteration lambda's 24-byte capture heap-allocated on
     * every single iteration.
     */
    isa::CasFn cas_fn_;
    VirtAddr cas_base_ = 0;
    bool cas_fault_ = false;
    AccelStats stats_;
};

}  // namespace pulse::accel

#endif  // PULSE_ACCEL_ACCELERATOR_H
