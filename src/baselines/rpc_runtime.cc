#include "baselines/rpc_runtime.h"

#include <algorithm>

#include "common/logging.h"
#include "isa/interpreter.h"
#include "isa/traversal.h"

namespace pulse::baselines {

using isa::TraversalStatus;

struct RpcRuntime::OpState
{
    offload::Operation op;
    isa::Workspace workspace;
    Time submit_time = 0;
    std::uint64_t iterations = 0;
    std::uint32_t bounces = 0;
    Bytes scratch_wire = 0;  ///< scratch bytes shipped per message

    /**
     * At-most-once phase machine (reliable mode only). One "leg" is
     * one client -> server -> client exchange; bounces start new legs.
     * Server side: a duplicate arriving in kServing is ignored (the
     * original will answer), in kResponded it triggers a cached
     * response replay. Client side: responses for a superseded leg are
     * ignored, and kDone makes completion idempotent.
     */
    enum class Phase : std::uint8_t {
        kTravel,     ///< request on the wire (or lost)
        kServing,    ///< server executing (or queued)
        kResponded,  ///< response recorded/on the wire
        kDone,       ///< client accepted the final response
    };
    Phase phase = Phase::kTravel;
    std::uint64_t leg = 0;
    NodeId target_node = 0;
    std::uint32_t retransmits = 0;
    /** The armed retransmission timer (cancelled when quenched). */
    sim::EventId timer;
    isa::TraversalStatus resp_status = isa::TraversalStatus::kDone;
    isa::ExecFault resp_fault = isa::ExecFault::kNone;
};

RpcRuntime::RpcRuntime(sim::EventQueue& queue, net::Network& network,
                       mem::GlobalMemory& memory,
                       std::vector<mem::ChannelSet*> node_channels,
                       ClientId client, const RpcConfig& config)
    : queue_(queue), network_(network), memory_(memory),
      node_channels_(std::move(node_channels)), client_(client),
      config_(config)
{
    PULSE_ASSERT(config.workers_per_node > 0, "need RPC workers");
    PULSE_ASSERT(node_channels_.size() == memory.num_nodes(),
                 "one channel set per node required");
    servers_.resize(memory.num_nodes());
    for (auto& server : servers_) {
        server.busy.assign(config.workers_per_node, false);
    }
}

void
RpcRuntime::submit(offload::Operation&& op)
{
    inflight_++;
    auto state = std::make_shared<OpState>();
    state->op = std::move(op);
    state->submit_time = queue_.now();
    state->workspace.configure(*state->op.program);
    state->workspace.cur_ptr = state->op.start_ptr;
    std::copy_n(state->op.init_scratch.begin(),
                std::min(state->op.init_scratch.size(),
                         state->workspace.scratch.size()),
                state->workspace.scratch.begin());
    state->scratch_wire =
        std::max<Bytes>(state->op.program->analysis().scratch_footprint,
                        state->op.init_scratch.size());

    const Time issue_cost =
        state->op.init_cpu_time +
        static_cast<Time>(static_cast<double>(config_.client_overhead) *
                          config_.transport_overhead_factor / 2.0);
    queue_.schedule_after(issue_cost, [this, state] { issue(state); });
}

void
RpcRuntime::issue(const std::shared_ptr<OpState>& state)
{
    const auto node =
        memory_.address_map().node_for(state->workspace.cur_ptr);
    if (!node.has_value()) {
        state->phase = OpState::Phase::kDone;
        complete(state, TraversalStatus::kMemFault,
                 isa::ExecFault::kNone);
        return;
    }
    state->leg++;
    state->phase = OpState::Phase::kTravel;
    state->target_node = *node;
    send_request(state, *node);
    if (reliable()) {
        arm_timer(state);
    }
}

void
RpcRuntime::send_request(const std::shared_ptr<OpState>& state,
                         NodeId node)
{
    stats_.requests.increment();
    const Bytes request_bytes = net::kNetHeaderBytes +
                                config_.request_header_bytes +
                                state->scratch_wire;
    const std::uint64_t leg = state->leg;
    network_.send_message(net::EndpointAddr::client(client_),
                          net::EndpointAddr::mem_node(node),
                          request_bytes, [this, state, node, leg] {
                              on_request(state, node, leg);
                          });
}

void
RpcRuntime::arm_timer(const std::shared_ptr<OpState>& state)
{
    queue_.cancel(state->timer);  // supersede the previous leg's
    const Time delay =
        config_.retransmit_timeout
        << std::min<std::uint32_t>(state->retransmits, 6);
    // The response that quenches the leg cancels the timer, so it only
    // fires for a leg still awaiting its response.
    state->timer = queue_.schedule_after(delay, [this, state] {
        if (state->retransmits >= config_.max_retransmits) {
            state->phase = OpState::Phase::kDone;
            stats_.failures.increment();
            complete(state, TraversalStatus::kMemFault,
                     isa::ExecFault::kNone, /*timed_out=*/true);
            return;
        }
        state->retransmits++;
        stats_.retransmits.increment();
        // Always resend the request: the server's phase machine turns
        // it into a no-op (kServing), a response replay (kResponded),
        // or a fresh execution (the original never arrived).
        send_request(state, state->target_node);
        arm_timer(state);
    });
}

void
RpcRuntime::on_request(const std::shared_ptr<OpState>& state,
                       NodeId node, std::uint64_t leg)
{
    if (reliable()) {
        if (leg != state->leg ||
            state->phase == OpState::Phase::kDone) {
            return;  // duplicate from a superseded leg
        }
        if (state->phase == OpState::Phase::kServing) {
            return;  // executing: the original run will answer
        }
        if (state->phase == OpState::Phase::kResponded) {
            // Already executed: replay the recorded response (the
            // response itself must have been lost or delayed).
            stats_.replays.increment();
            send_response(state, node, state->resp_status,
                          state->resp_fault);
            return;
        }
        state->phase = OpState::Phase::kServing;
    }
    serve(state, node);
}

void
RpcRuntime::serve(const std::shared_ptr<OpState>& state, NodeId node)
{
    NodeServer& server = servers_[node];
    for (std::uint32_t w = 0; w < server.busy.size(); w++) {
        if (!server.busy[w]) {
            server.busy[w] = true;
            begin_execution(state, node, w);
            return;
        }
    }
    server.pending.push_back(state);
}

void
RpcRuntime::begin_execution(const std::shared_ptr<OpState>& state,
                            NodeId node, std::uint32_t worker)
{
    const Time start = queue_.now();
    const Time server_cost = static_cast<Time>(
        static_cast<double>(config_.server_overhead) *
        config_.transport_overhead_factor);
    queue_.schedule_after(server_cost,
                          [this, state, node, worker, start] {
                              execute_step(state, node, worker, start);
                          });
}

void
RpcRuntime::execute_step(const std::shared_ptr<OpState>& state,
                         NodeId node, std::uint32_t worker, Time start)
{
    // One iteration per event: load (DRAM latency + channel occupancy
    // shared with every other worker), then the logic on this core.
    const std::uint32_t load_bytes = state->op.program->load_bytes();
    const VirtAddr ptr = state->workspace.cur_ptr;
    Time iter_done = queue_.now();
    if (ptr != kNullAddr && load_bytes > 0) {
        const auto owner = memory_.address_map().node_for(ptr);
        if (!owner.has_value()) {
            finish_execution(state, node, worker, start,
                             TraversalStatus::kMemFault,
                             isa::ExecFault::kNone);
            return;
        }
        if (*owner != node) {
            finish_execution(state, node, worker, start,
                             TraversalStatus::kNotLocal,
                             isa::ExecFault::kNone);
            return;
        }
        const Time channel_done =
            node_channels_[node]->access(queue_.now(), load_bytes);
        iter_done =
            std::max(queue_.now() + config_.dram_latency, channel_done);
        memory_.read(ptr, state->workspace.data.data(), load_bytes);
    } else if (load_bytes > 0) {
        std::fill_n(state->workspace.data.begin(), load_bytes, 0);
    }

    isa::CasFn cas = [this, ptr, node](std::uint64_t mem_off,
                                       std::uint64_t expected,
                                       std::uint64_t desired) {
        const VirtAddr addr = ptr + mem_off;
        const auto owner = memory_.address_map().node_for(addr);
        if (!owner || *owner != node) {
            return false;  // off-node CAS is not supported
        }
        node_channels_[node]->access(queue_.now(), 8);
        const std::uint64_t current =
            memory_.read_as<std::uint64_t>(addr);
        if (current != expected) {
            return false;
        }
        memory_.write_as<std::uint64_t>(addr, desired);
        return true;
    };
    isa::IterationResult iter =
        run_iteration(*state->op.program, state->workspace, cas);
    state->iterations++;
    stats_.iterations.increment();
    iter_done += config_.cpu_time(iter.instructions_executed);
    for (const isa::PendingStore& st : iter.stores) {
        node_channels_[node]->access(iter_done, st.length);
        memory_.write(ptr + st.mem_offset,
                      state->workspace.data.data() + st.data_offset,
                      st.length);
    }

    // The RPC baseline has no fork coordinator (chain_end, as in the
    // single-chain path of isa/traversal.cc).
    const isa::ChainEnd end = isa::chain_end(iter);
    if (!end.ended &&
        state->iterations < offload::kGlobalIterationGuard) {
        queue_.schedule_at(iter_done,
                           [this, state, node, worker, start] {
                               execute_step(state, node, worker, start);
                           });
        return;
    }
    const TraversalStatus status =
        end.ended ? end.status : TraversalStatus::kMaxIter;
    const isa::ExecFault fault = end.fault;
    queue_.schedule_at(iter_done, [this, state, node, worker, start,
                                   status, fault] {
        finish_execution(state, node, worker, start, status, fault);
    });
}

void
RpcRuntime::finish_execution(const std::shared_ptr<OpState>& state,
                             NodeId node, std::uint32_t worker,
                             Time start, TraversalStatus status,
                             isa::ExecFault fault)
{
    NodeServer& server = servers_[node];
    stats_.worker_busy_time.add(
        static_cast<double>(queue_.now() - start));
    server.busy[worker] = false;
    if (!server.pending.empty()) {
        std::shared_ptr<OpState> next = server.pending.front();
        server.pending.pop_front();
        server.busy[worker] = true;
        begin_execution(next, node, worker);
    }

    if (reliable()) {
        if (state->phase == OpState::Phase::kDone) {
            // The client already gave up on this operation; don't
            // resurrect it with a late response.
            return;
        }
        // Record the outcome for cached-response replays.
        state->phase = OpState::Phase::kResponded;
        state->resp_status = status;
        state->resp_fault = fault;
    }
    send_response(state, node, status, fault);
}

void
RpcRuntime::send_response(const std::shared_ptr<OpState>& state,
                          NodeId node, TraversalStatus status,
                          isa::ExecFault fault)
{
    // Response (same wire format as the request).
    const Bytes response_bytes = net::kNetHeaderBytes +
                                 config_.request_header_bytes +
                                 state->scratch_wire;
    stats_.responses.increment();
    const std::uint64_t leg = state->leg;
    network_.send_message(
        net::EndpointAddr::mem_node(node),
        net::EndpointAddr::client(client_), response_bytes,
        [this, state, status, fault, leg] {
            if (reliable()) {
                if (leg != state->leg ||
                    state->phase == OpState::Phase::kDone) {
                    return;  // duplicate/stale response at the client
                }
                // Quench the timer; cancelling also drops its
                // reference to this state.
                queue_.cancel(state->timer);
            }
            if (status == TraversalStatus::kNotLocal &&
                state->iterations < offload::kGlobalIterationGuard) {
                // Continuation bounce: the client re-issues to the
                // owning node after its software overhead.
                stats_.node_bounces.increment();
                state->bounces++;
                const Time bounce_cost = static_cast<Time>(
                    static_cast<double>(config_.client_overhead) *
                    config_.transport_overhead_factor);
                queue_.schedule_after(bounce_cost, [this, state] {
                    issue(state);
                });
                return;
            }
            state->phase = OpState::Phase::kDone;
            complete(state, status, fault);
        });
}

void
RpcRuntime::complete(const std::shared_ptr<OpState>& state,
                     TraversalStatus status, isa::ExecFault fault,
                     bool timed_out)
{
    const Time finish_cost = static_cast<Time>(
        static_cast<double>(config_.client_overhead) *
        config_.transport_overhead_factor / 2.0);
    queue_.schedule_after(finish_cost, [this, state, status, fault,
                                        timed_out] {
        offload::Completion completion;
        completion.status = status;
        completion.fault = fault;
        completion.final_ptr = state->workspace.cur_ptr;
        completion.scratch = state->workspace.scratch;
        completion.iterations = state->iterations;
        completion.client_bounces = state->bounces;
        completion.retransmits = state->retransmits;
        completion.offloaded = true;
        completion.timed_out = timed_out;
        completion.latency = queue_.now() - state->submit_time;
        inflight_--;
        if (state->op.done) {
            state->op.done(std::move(completion));
        }
    });
}

}  // namespace pulse::baselines
