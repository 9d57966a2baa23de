/**
 * @file
 * RPC baseline: traversals offloaded to CPUs at the memory nodes
 * (paper section 7's "RPC" via eRPC, and "RPC-W" — wimpy cores emulated
 * by down-clocking server cores, exactly as the paper does).
 *
 * Each memory node runs a bounded pool of worker cores. A request
 * occupies one worker for its whole traversal: per iteration it pays
 * local DRAM latency, memory-channel occupancy (the same 25 GB/s cap
 * every system shares), and the iteration's instruction count divided
 * by the core clock. Results are computed by the same ISA interpreter
 * as every other system.
 *
 * Multi-node behaviour: when the next pointer leaves the node, the
 * worker returns a continuation response to the *client*, which
 * re-issues the request to the owning node — RPC systems have no
 * in-network forwarding, which is precisely the half-RTT + software
 * overhead pulse's switch continuation removes (sections 5, 7.1).
 */
#ifndef PULSE_BASELINES_RPC_RUNTIME_H
#define PULSE_BASELINES_RPC_RUNTIME_H

#include <deque>
#include <memory>
#include <vector>

#include "common/stats.h"
#include "mem/global_memory.h"
#include "mem/memory_channel.h"
#include "net/network.h"
#include "offload/offload_engine.h"
#include "sim/event_queue.h"

namespace pulse::baselines {

/** RPC system tunables. */
struct RpcConfig
{
    /** Server core clock (RPC: 2.6 GHz Xeon; RPC-W: 1.0 GHz). */
    double clock_ghz = 2.6;

    /**
     * Cycles per traversal-logic instruction. Pointer-chasing code on
     * a general-purpose core is branchy and dependency-chained, so the
     * effective CPI is well above 1.
     */
    double cpi = 2.5;

    /** Worker cores per memory node (min that saturates bandwidth). */
    std::uint32_t workers_per_node = 16;

    /** Local DRAM latency per aggregated load. */
    Time dram_latency = nanos(100.0);

    /** Server software per request (eRPC rx + dispatch + tx). */
    Time server_overhead = nanos(850.0);

    /** Client software per request (issue + completion). */
    Time client_overhead = nanos(550.0);

    /**
     * Extra per-request overhead factor for TCP-stack transports
     * (AIFM's Cache+RPC path); 1.0 for eRPC/DPDK.
     */
    double transport_overhead_factor = 1.0;

    /** Request/response wire sizes beyond the scratch payload. */
    Bytes request_header_bytes = 64;

    /**
     * Reliable delivery, as eRPC-style transports always run: the
     * client stub retransmits a request after this timeout
     * (exponential backoff), and servers keep an at-most-once phase
     * machine per operation — a retransmit of an executing request is
     * ignored, a retransmit of a finished one gets the cached response
     * re-sent. The offload engine's 20 ms default: on a healthy
     * network every response quenches its timer long before it fires.
     */
    Time retransmit_timeout = micros(20000.0);

    /** Give up (timed-out completion) after this many retransmits. */
    std::uint32_t max_retransmits = 8;

    /** Per-iteration time on the worker core for @p instructions. */
    Time
    cpu_time(std::uint64_t instructions) const
    {
        return static_cast<Time>(static_cast<double>(instructions) *
                                 cpi / clock_ghz * kNanosecond);
    }
};

/** Per-run statistics. */
struct RpcStats
{
    Counter requests;
    Counter responses;
    Counter node_bounces;   ///< continuations via the client
    Counter iterations;
    Counter retransmits;    ///< client-stub request re-sends
    Counter replays;        ///< server cached-response re-sends
    Counter failures;       ///< ops abandoned after max retransmits
    Accumulator worker_busy_time;  ///< ps, summed over workers
};

/**
 * The RPC system: servers on every memory node plus the client-side
 * stub that issues requests and handles continuation bounces.
 */
class RpcRuntime
{
  public:
    RpcRuntime(sim::EventQueue& queue, net::Network& network,
               mem::GlobalMemory& memory,
               std::vector<mem::ChannelSet*> node_channels,
               ClientId client, const RpcConfig& config);

    /** Execute a traversal via RPC; op.done fires on completion. */
    void submit(offload::Operation&& op);

    const RpcStats& stats() const { return stats_; }
    void reset_stats() { stats_ = RpcStats{}; }
    const RpcConfig& config() const { return config_; }

    /** Operations still in flight. */
    std::size_t inflight() const { return inflight_; }

  private:
    struct OpState;

    /** One memory node's worker pool + admission queue. */
    struct NodeServer
    {
        std::vector<bool> busy;
        std::deque<std::shared_ptr<OpState>> pending;
    };

    /** Issue (or re-issue) the request to the node owning cur_ptr. */
    void issue(const std::shared_ptr<OpState>& state);

    /** Send the current leg's request bytes (initial or retransmit). */
    void send_request(const std::shared_ptr<OpState>& state,
                      NodeId node);

    /** Arm the per-operation retransmission timer. */
    void arm_timer(const std::shared_ptr<OpState>& state);

    /** Request arrival at @p node: dedupe, then claim a worker. */
    void on_request(const std::shared_ptr<OpState>& state, NodeId node,
                    std::uint64_t leg);

    /** Request arrival at @p node: claim a worker or queue. */
    void serve(const std::shared_ptr<OpState>& state, NodeId node);

    /** Deliver (or re-deliver) the recorded response for @p state. */
    void send_response(const std::shared_ptr<OpState>& state,
                       NodeId node, isa::TraversalStatus status,
                       isa::ExecFault fault);

    /** Start executing on a claimed worker. */
    void begin_execution(const std::shared_ptr<OpState>& state,
                         NodeId node, std::uint32_t worker);

    /** One event-driven iteration step on the worker. */
    void execute_step(const std::shared_ptr<OpState>& state,
                      NodeId node, std::uint32_t worker, Time start);

    /** Worker done: free it, respond, admit queued work. */
    void finish_execution(const std::shared_ptr<OpState>& state,
                          NodeId node, std::uint32_t worker, Time start,
                          isa::TraversalStatus status,
                          isa::ExecFault fault);

    void complete(const std::shared_ptr<OpState>& state,
                  isa::TraversalStatus status, isa::ExecFault fault,
                  bool timed_out = false);

    sim::EventQueue& queue_;
    net::Network& network_;
    mem::GlobalMemory& memory_;
    std::vector<mem::ChannelSet*> node_channels_;
    ClientId client_;
    RpcConfig config_;
    std::vector<NodeServer> servers_;
    RpcStats stats_;
    std::size_t inflight_ = 0;
};

}  // namespace pulse::baselines

#endif  // PULSE_BASELINES_RPC_RUNTIME_H
