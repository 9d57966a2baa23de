/**
 * @file
 * The pulse offload engine at the CPU node (paper section 4.1).
 *
 * For each traversal the engine:
 *   1. reads the static analysis the iterator's ISA program carries
 *      (Program::analysis(): instruction count N, load and scratch
 *      footprints) and applies the offload test
 *      t_c = N*t_i <= eta_threshold * t_d — only memory-centric
 *      traversals go to the accelerator;
 *   2. encapsulates code + cur_ptr + scratch_pad into a traversal
 *      request carrying a (client id, sequence) request id, and lets
 *      the network (switch) pick the memory node;
 *   3. runs a retransmission timer per request to recover from drops;
 *   4. transparently continues traversals that return kMaxIter (issues
 *      a new request from final_ptr with the returned scratch_pad) and,
 *      in pulse-ACC mode, traversals that return kNotLocal (the client
 *      bounce the section 7.2 ablation measures);
 *   5. executes traversals that fail the offload test at the CPU node
 *      with one-sided remote reads (one round trip per load).
 */
#ifndef PULSE_OFFLOAD_OFFLOAD_ENGINE_H
#define PULSE_OFFLOAD_OFFLOAD_ENGINE_H

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/scratch_buffer.h"
#include "common/serial.h"
#include "common/stats.h"
#include "isa/analysis.h"
#include "isa/traversal.h"
#include "mem/global_memory.h"
#include "net/network.h"
#include "offload/fork_join.h"
#include "offload/rto_estimator.h"
#include "sim/event_queue.h"
#include "trace/trace.h"

namespace pulse::offload {

/**
 * Engine-level guard against runaway traversals (cycles in data):
 * total iterations across all continuation legs of one operation.
 * Exposed so the golden oracle replays the same resume discipline.
 */
inline constexpr std::uint64_t kGlobalIterationGuard = 1u << 20;

/** Lower clamp for the adaptive retransmission timeout. */
inline constexpr Time kRtoMin = micros(100.0);

/**
 * Adaptive-timeout floor as a multiple of srtt: guards against variance
 * collapse when simulated RTTs are near-constant (then srtt + 4*rttvar
 * barely exceeds srtt and any queueing excursion would fire a spurious
 * retransmit).
 */
inline constexpr double kRtoSrttMultiplier = 2.0;

/**
 * Deterministic jitter added to each armed timeout, as a fraction of
 * the delay: de-synchronizes retransmit storms across clients after a
 * blackout. Drawn from a hash of (client, op, attempt) — no shared RNG
 * stream, so it cannot perturb any other random decision in the run.
 */
inline constexpr double kRtoJitterFraction = 0.1;

/** Offload-engine tunables. */
struct OffloadConfig
{
    /** eta threshold for the offload test (paper sets eta = 1). */
    double eta_threshold = 1.0;

    /** Client software time to build/issue one request (DPDK path). */
    Time request_software_overhead = nanos(300.0);

    /** Client software time to absorb one response. */
    Time response_software_overhead = nanos(250.0);

    /**
     * Retransmission timeout before the first RTT sample, and the
     * upper clamp for the adaptive estimator (exponential backoff on
     * retries applies on top). Must comfortably exceed the longest
     * legitimate *loaded* traversal — a multi-node continuation chain
     * under closed-loop saturation can queue for milliseconds — or
     * retransmits duplicate execution and collapse throughput. With
     * adaptive_rto the engine converges to srtt + 4*rttvar well below
     * this, so recovery under loss is orders of magnitude faster.
     */
    Time retransmit_timeout = micros(20000.0);

    /** Give up after this many retransmissions of one request. */
    std::uint32_t max_retransmits = 8;

    /**
     * Derive the retransmission timeout from a Jacobson/Karels RTT
     * estimator (srtt/rttvar, Karn's rule) instead of the fixed
     * constant. The fixed retransmit_timeout remains the initial value
     * and the ceiling. Off by default: under closed-loop saturation
     * the RTT a request sees is dominated by queueing that ramps
     * faster than the estimator tracks, so a converged (small) RTO
     * fires spuriously and the duplicate traffic perturbs healthy-
     * network throughput; fault-injection runs (tests/test_faults,
     * bench/ablation_faults) turn it on for fast loss recovery.
     */
    bool adaptive_rto = false;

    /**
     * pulse (true): a kNotLocal traversal is re-routed by the switch
     * (section 5). pulse-ACC (false, section 7.2): it bounces through
     * the origin client. Stamped on every request as
     * allow_switch_continuation, which accelerators echo.
     */
    bool switch_continuation = true;

    /**
     * How many requests per program ship the full encoded code before
     * switching to 16-byte program ids (program installation; sized so
     * every accelerator in the rack receives a copy).
     */
    std::uint32_t code_install_sends = 8;

    /**
     * Per-load round-trip software cost for the non-offloaded fallback
     * path (client-side remote reads): added to the network RTT.
     */
    Time fallback_software_overhead = nanos(600.0);
};

/** Final result of one traversal operation. */
struct Completion
{
    isa::TraversalStatus status = isa::TraversalStatus::kDone;
    isa::ExecFault fault = isa::ExecFault::kNone;
    VirtAddr final_ptr = kNullAddr;
    std::vector<std::uint8_t> scratch;
    std::uint64_t iterations = 0;
    Time latency = 0;              ///< submit -> completion
    bool offloaded = false;        ///< accelerator (true) or fallback
    bool timed_out = false;        ///< gave up after max retransmits
    /**
     * QoS admission control shed the request (kRejected response).
     * Always paired with timed_out = true so the fleet's existing
     * retry/backoff path re-submits without a special case; rejected
     * distinguishes "load-shed, retry later" from "gave up after max
     * retransmits" for callers that care (fleet sessions, tests).
     */
    bool rejected = false;
    std::uint32_t retransmits = 0;
    std::uint32_t client_bounces = 0;  ///< ACC-mode re-issues
    std::uint32_t continuations = 0;   ///< kMaxIter resumes
};

/** Completion callback. */
using CompletionFn = std::function<void(Completion&&)>;

/** One traversal operation to run. */
struct Operation
{
    std::shared_ptr<const isa::Program> program;
    VirtAddr start_ptr = kNullAddr;
    ScratchBuffer init_scratch;  ///< produced by init()
    /** Extra client-side time spent in init() (e.g. hashing). */
    Time init_cpu_time = 0;

    /**
     * Object identity for object-granularity caches (the Cache+RPC
     * baseline): id of the object this operation reads and its size.
     * object_bytes == 0 means "not cacheable". Ignored by pulse.
     */
    std::uint64_t object_id = 0;
    Bytes object_bytes = 0;

    /**
     * Tenant identity (serving plane, src/serve). Travels in every
     * packet descending from this operation so per-tenant QoS applies
     * at the accelerator admission point. 0 — the default — is the
     * anonymous tenant; with the serving plane off the value is
     * carried but never read.
     */
    std::uint32_t tenant = 0;

    CompletionFn done;
};

/**
 * One operation on a client-side executor (the engine's fallback, the
 * RPC runtime, the cache client): the operation, its single-chain walk
 * seeded from it, and when it was submitted.
 */
struct WalkRecord
{
    WalkRecord(Operation&& op, Time submit_time);

    Operation op;
    isa::Walk walk;
    Time submit_time = 0;

    /**
     * The completion of a walk that ended with @p status / @p fault at
     * @p now: final pointer, scratch_pad and iterations from the walk.
     * Executor-specific fields (offloaded, retransmits, ...) stay at
     * their defaults for the caller to set.
     */
    Completion completion(isa::TraversalStatus status,
                          isa::ExecFault fault, Time now) const;

    /** Hand @p completion to op.done. */
    void finish(Completion&& completion);
};

/** Offload-engine statistics. */
struct OffloadStats
{
    Counter submitted;
    Counter offloaded;
    Counter fallback;
    Counter retransmits;
    Counter client_bounces;
    Counter continuations;
    Counter failures;
    Counter stale_responses;  ///< dropped: echo of a superseded visit
};

/** The per-client offload engine. */
class OffloadEngine
{
  public:
    /** @p t_i and @p t_d: the offload test's inputs, the accelerators'
     *  AccelConfig::logic_time_per_insn and mem_pipeline_latency. */
    OffloadEngine(sim::EventQueue& queue, net::Network& network,
                  mem::GlobalMemory& memory, ClientId client,
                  const OffloadConfig& config, Time t_i, Time t_d);

    /** Submit a traversal; @p op.done fires on completion. */
    void submit(Operation&& op);

    /**
     * The offload decision for a program's analysis (exposed for
     * Table 2 and the ablation benches): true when
     * t_c <= eta_threshold * t_d.
     */
    bool should_offload(const isa::ProgramAnalysis& analysis) const;

    /** Operations still in flight. */
    std::size_t inflight() const { return inflight_.size(); }

    const OffloadStats& stats() const { return stats_; }
    void reset_stats() { stats_ = OffloadStats{}; }
    const OffloadConfig& config() const { return config_; }

    /** The adaptive RTT estimator (exposed for tests/benches). */
    const RtoEstimator& rto_estimator() const { return rto_; }

    /**
     * Fork/join telemetry (not registered stats: the metrics schema —
     * and therefore every golden metrics JSON — is unchanged when the
     * feature is unused). forks_spawned counts sub-traversals this
     * engine forked.
     */
    std::uint64_t forks_spawned() const { return forks_spawned_; }

    /**
     * Serving-plane telemetry (same non-registered pattern): responses
     * carrying kRejected — QoS load sheds — this engine absorbed. The
     * cluster-level serve.* counters are the registered view when the
     * plane is on; this accessor exists so tests can assert the
     * client-side path without touching the metrics schema.
     */
    std::uint64_t rejections_seen() const { return rejections_seen_; }

    /**
     * Checkpoint support (core/checkpoint.cc): requires a quiesced
     * engine (no in-flight operations). Program installation counts
     * (ProgramRecord::sends) are keyed by interned Program pointers,
     * which do not survive a process or cluster boundary — they are
     * serialized as sorted encoded-program digests and re-attached
     * when the restored run's submit() pins each program again.
     */
    void checkpoint(StateIo& io);

    /**
     * Attach the cluster's span tracer (nullptr detaches). While the
     * tracer is enabled, every offloaded request is stamped sampled
     * (its TraceContext travels in the packet) and the client-side
     * software phases record spans.
     */
    void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

  private:
    /**
     * Join record of a forking in-flight operation (fork/join
     * extension). Created lazily the first time the operation spawns —
     * or reaches JOIN — so non-forking operations pay nothing.
     */
    struct ForkState
    {
        JoinAccumulator acc;
        /** Scratch offset of the REDUCE accumulator lanes. */
        std::uint32_t reduce_offset = 0;
        /** Own chain reached its terminal while branches were open. */
        bool parent_done = false;
        /** First branch failure wins; reported at finalize. */
        bool failed = false;
        isa::TraversalStatus fail_status = isa::TraversalStatus::kDone;
        isa::ExecFault fail_fault = isa::ExecFault::kNone;
        /** The parked own-chain completion (valid iff parent_done). */
        Completion parent_completion;
        /** Root only: total sub-traversals in this operation's DAG
         *  (the kForkNodeGuard counter). */
        std::uint64_t total_spawned = 0;
        /** Iterations executed by completed child subtrees. */
        std::uint64_t child_iterations = 0;
    };

    struct InFlight
    {
        Operation op;
        Time submit_time = 0;
        std::uint64_t iterations = 0;
        std::uint32_t retransmits = 0;
        std::uint32_t client_bounces = 0;
        std::uint32_t continuations = 0;
        /** Bumped on every arm and every quench; the retransmit
         *  jitter hashes it. */
        std::uint64_t timer_generation = 0;
        /** The armed retransmit timer (cancelled when quenched). */
        sim::EventId timer;
        /** The current leg's request, used bytes only (for
         *  retransmission). */
        net::TraversalPacket last_request;
        /** When the current leg's request hit the wire (RTT anchor). */
        Time leg_issue_time = 0;
        /** Karn's rule: a retransmitted leg yields no RTT sample. */
        bool leg_retransmitted = false;
        /** visit_echo the current leg's response must carry. */
        std::uint64_t expected_echo = 0;
        /** Fork lineage: the spawning operation's key (0 = a root). */
        std::uint64_t parent_key = 0;
        /** This subtree's index under the parent's join record. */
        std::uint32_t branch_index = 0;
        /** Fork depth (0 = root; children run at parent depth + 1). */
        std::uint32_t depth = 0;
        /** The DAG's root key (== own key for roots). */
        std::uint64_t root_key = 0;
        /** Join record; null until this operation forks/joins. */
        std::unique_ptr<ForkState> fork;
    };

    /**
     * Send one leg of operation @p key from slot @p packet, whose
     * cur_ptr, iterations_done and scratch the caller has set; every
     * other field is filled here. Takes ownership of the handle.
     */
    void issue(std::uint64_t key, net::PacketHandle packet);
    void arm_timer(std::uint64_t key);
    void on_response(net::PacketHandle handle);
    void complete(std::uint64_t key, Completion&& completion);

    /** Client-side execution with one-sided remote reads: one network
     *  round trip per aggregated load, the interpreter on the client
     *  CPU. */
    void fallback_step(const std::shared_ptr<WalkRecord>& record);
    void fallback_iterate(const std::shared_ptr<WalkRecord>& record);

    /** Fork/join coordination (see offload_engine.cc for the flow). */
    ForkState& ensure_fork(std::uint64_t key);
    void process_spawns(std::uint64_t key,
                        const net::TraversalPacket& packet);
    void finalize(std::uint64_t key, Completion&& completion);
    void child_joined(std::uint64_t parent_key,
                      Completion&& child_completion);

    sim::EventQueue& queue_;
    net::Network& network_;
    net::PacketArena& packets_;
    mem::GlobalMemory& memory_;
    ClientId client_;
    OffloadConfig config_;
    Time t_i_;  ///< accelerator logic time per instruction
    Time t_d_;  ///< accelerator memory-pipeline latency
    std::uint64_t next_seq_ = 1;
    std::unordered_map<std::uint64_t, InFlight> inflight_;

    /** One per distinct program this engine offloaded (see submit). */
    struct ProgramRecord
    {
        /**
         * Held until the cluster is torn down, so the non-owning
         * `TraversalPacket::code` references that fan out from here
         * (continuations, retransmit buffers, replay caches) stay valid
         * without per-hop refcount traffic.
         */
        std::shared_ptr<const isa::Program> pin;
        std::uint32_t sends = 0;  ///< requests that shipped full code
    };
    std::unordered_map<const isa::Program*, ProgramRecord> programs_;
    /**
     * Installation counts restored from a checkpoint, keyed by encoded-
     * program digest until the owning program is re-pinned (see
     * checkpoint).
     */
    std::unordered_map<std::uint64_t, std::uint32_t>
        restored_code_sends_;
    RtoEstimator rto_;
    trace::Tracer* tracer_ = nullptr;
    OffloadStats stats_;
    std::uint64_t forks_spawned_ = 0;
    std::uint64_t rejections_seen_ = 0;
};

}  // namespace pulse::offload

#endif  // PULSE_OFFLOAD_OFFLOAD_ENGINE_H
