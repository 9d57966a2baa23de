#include "offload/offload_engine.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/logging.h"
#include "isa/codec.h"
#include "isa/traversal.h"

namespace pulse::offload {

using isa::TraversalStatus;

namespace {

/** Wire size of a one-sided read request (headers + addr + len). */
constexpr Bytes kRemoteReadRequestBytes = net::kNetHeaderBytes + 16;

/** SplitMix64 finalizer for the deterministic backoff jitter. */
std::uint64_t
jitter_hash(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Content digest of a program (FNV-1a over its encoding): the stable
 * identity that lets checkpointed installation counts survive the
 * Program* interning boundary.
 */
std::uint64_t
program_digest(const isa::Program& program)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint8_t byte : isa::encode_program(program)) {
        h = (h ^ byte) * 0x100000001b3ull;
    }
    return h;
}

}  // namespace

OffloadEngine::OffloadEngine(sim::EventQueue& queue,
                             net::Network& network,
                             mem::GlobalMemory& memory, ClientId client,
                             const OffloadConfig& config, Time t_i,
                             Time t_d)
    : queue_(queue), network_(network), packets_(network.packets()),
      memory_(memory), client_(client), config_(config), t_i_(t_i),
      t_d_(t_d),
      rto_(config.retransmit_timeout, config.rto_min,
           config.retransmit_timeout, config.rto_srtt_multiplier)
{
    network_.attach_traversal_sink(
        net::EndpointAddr::client(client_),
        [this](net::PacketHandle packet) { on_response(packet); });
}

bool
OffloadEngine::should_offload(const isa::ProgramAnalysis& analysis) const
{
    if (!analysis.valid) {
        return false;
    }
    // Atomic (CAS) programs must run near the memory: the client's
    // one-sided fallback path has no remote-atomic primitive.
    if (analysis.has_cas) {
        return true;
    }
    // Forking programs always offload: the client fallback executes a
    // single chain and cannot coordinate a distributed join.
    if (analysis.has_spawn) {
        return true;
    }
    const Time t_c = isa::compute_time(analysis, t_i_);
    return static_cast<double>(t_c) <=
           config_.eta_threshold * static_cast<double>(t_d_);
}

void
OffloadEngine::checkpoint(StateIo& io)
{
    PULSE_ASSERT(inflight_.empty(),
                 "checkpoint requires a quiesced offload engine "
                 "(%zu in flight)",
                 inflight_.size());
    io.tag("OFFL");
    io.u64(next_seq_);
    rto_.checkpoint(io);
    for (Counter* counter :
         {&stats_.submitted, &stats_.offloaded, &stats_.fallback,
          &stats_.retransmits, &stats_.client_bounces,
          &stats_.continuations, &stats_.failures,
          &stats_.stale_responses}) {
        counter->checkpoint(io);
    }
    // Fork/join join-state record: the quiesce precondition means no
    // join is open, so the lifetime fork counter is the whole state.
    io.u64(forks_spawned_);
    // Installation counts, keyed by content digest in sorted order so
    // the blob is independent of hash-map iteration.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> sends;
    if (!io.reading()) {
        for (const auto& [program, record] : programs_) {
            sends.emplace_back(program_digest(*program), record.sends);
        }
        sends.insert(sends.end(), restored_code_sends_.begin(),
                     restored_code_sends_.end());
        std::sort(sends.begin(), sends.end());
    }
    std::uint64_t count = sends.size();
    io.count(count, sizeof(std::uint64_t) + sizeof(std::uint32_t));
    sends.resize(count);
    for (auto& [digest, sent] : sends) {
        io.u64(digest);
        io.u32(sent);
    }
    if (!io.reading()) {
        return;
    }
    restored_code_sends_.clear();
    for (const auto& [digest, sent] : sends) {
        restored_code_sends_[digest] = sent;
    }
    // Counts for programs this engine already pinned re-attach now;
    // the rest wait for their program's first submit.
    for (auto& [program, record] : programs_) {
        const auto found =
            restored_code_sends_.find(program_digest(*program));
        if (found != restored_code_sends_.end()) {
            record.sends = found->second;
            restored_code_sends_.erase(found);
        }
    }
}

void
OffloadEngine::submit(Operation&& op)
{
    stats_.submitted.increment();
    PULSE_ASSERT(static_cast<bool>(op.program), "operation without code");
    const isa::ProgramAnalysis& analysis = op.program->analysis();
    if (!analysis.valid) {
        Completion completion;
        completion.status = TraversalStatus::kExecFault;
        completion.fault = isa::ExecFault::kIllegalInstruction;
        stats_.failures.increment();
        op.done(std::move(completion));
        return;
    }
    if (!should_offload(analysis)) {
        stats_.fallback.increment();
        run_fallback(std::move(op));
        return;
    }

    stats_.offloaded.increment();
    const auto [record, first_submit] =
        programs_.try_emplace(op.program.get(), op.program);
    if (first_submit && !restored_code_sends_.empty()) {
        // A checkpointed run already shipped install copies of this
        // program; resume its count so continuation traffic (and wire
        // accounting) matches the uninterrupted run byte for byte.
        const auto sends =
            restored_code_sends_.find(program_digest(*op.program));
        if (sends != restored_code_sends_.end()) {
            record->second.sends = sends->second;
            restored_code_sends_.erase(sends);
        }
    }
    const std::uint64_t key = next_seq_++;
    InFlight inflight;
    inflight.op = std::move(op);
    inflight.submit_time = queue_.now();
    inflight.root_key = key;  // a root is its own DAG root
    // The request is built in its slot now; issue() fills the header
    // once the client software time has passed.
    const net::PacketHandle handle = packets_.acquire();
    net::TraversalPacket& packet = packets_[handle];
    packet.cur_ptr = inflight.op.start_ptr;
    packet.iterations_done = 0;
    // Trim the shipped scratch_pad to the program's static footprint.
    const ScratchBuffer& init = inflight.op.init_scratch;
    packet.scratch.assign(init.data(), init.size());
    packet.scratch.resize(
        std::max<std::size_t>(analysis.scratch_footprint, init.size()),
        0);
    const Time cpu_time = inflight.op.init_cpu_time +
                          config_.request_software_overhead;
    if (tracer_ != nullptr && tracer_->enabled()) {
        tracer_->record({RequestId{client_, key},
                         trace::SpanKind::kClientSubmit,
                         trace::Location::kClient, client_,
                         queue_.now(), cpu_time, 0});
    }
    inflight_.emplace(key, std::move(inflight));
    queue_.schedule_after(cpu_time,
                          [this, key, handle] { issue(key, handle); });
}

void
OffloadEngine::issue(std::uint64_t key, net::PacketHandle handle)
{
    auto it = inflight_.find(key);
    if (it == inflight_.end()) {
        // Completed (e.g. timed out) before the issue fired.
        packets_.release(handle);
        return;
    }
    InFlight& inflight = it->second;

    net::TraversalPacket& packet = packets_[handle];
    const std::uint64_t iterations_done = packet.iterations_done;
    packet.id = RequestId{client_, key};
    packet.origin = client_;
    packet.tenant = inflight.op.tenant;
    packet.is_response = false;
    packet.status = TraversalStatus::kDone;
    packet.fault = isa::ExecFault::kNone;
    // Every packet descending from this leg (responses, forwarded
    // continuations, replayed duplicates) echoes this value; responses
    // carrying an older echo are stale and get dropped.
    packet.visit_echo = iterations_done;
    packet.trace = net::TraceContext{
        .sampled = tracer_ != nullptr && tracer_->enabled()};
    packet.checksum = 0;
    packet.allow_switch_continuation = config_.switch_continuation;
    packet.spawns.clear();
    // Fork lineage: sub-traversal packets carry their depth, the
    // parent's request id and their branch index, so the join
    // rendezvous survives any routing the packet takes.
    packet.spawn_depth = inflight.depth;
    packet.parent_id = inflight.parent_key != 0
                           ? RequestId{client_, inflight.parent_key}
                           : RequestId{};
    packet.branch_index = inflight.branch_index;  // 0 for a root
    attach_program(packet, inflight.op.program);
    // After the program is installed at the accelerators, requests
    // carry a 16-byte program id instead of the code.
    std::uint32_t& sends = programs_.at(inflight.op.program.get()).sends;
    if (sends >= config_.code_install_sends) {
        packet.code_size = net::kCodeIdBytes;
    } else {
        sends++;
    }

    net::copy_used(inflight.last_request, packet);
    inflight.leg_issue_time = queue_.now();
    inflight.leg_retransmitted = false;
    inflight.expected_echo = iterations_done;
    arm_timer(key);
    network_.send_traversal(net::EndpointAddr::client(client_), handle);
}

void
OffloadEngine::arm_timer(std::uint64_t key)
{
    auto it = inflight_.find(key);
    PULSE_ASSERT(it != inflight_.end(), "arming timer for unknown op");
    queue_.cancel(it->second.timer);  // supersede the previous leg's
    const std::uint64_t generation = ++it->second.timer_generation;
    // Exponential backoff keeps loaded (queued) traversals from being
    // duplicated by premature retransmissions.
    const Time base = config_.adaptive_rto ? rto_.rto()
                                           : config_.retransmit_timeout;
    Time delay =
        base << std::min<std::uint32_t>(it->second.retransmits, 6);
    if (config_.rto_jitter_fraction > 0.0) {
        // Deterministic jitter from a per-(op, attempt) hash: spreads
        // simultaneous timeouts without consuming any RNG stream.
        const std::uint64_t h = jitter_hash(
            (static_cast<std::uint64_t>(client_) << 40) ^ (key << 8) ^
            generation);
        const double unit =
            static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
        delay += static_cast<Time>(static_cast<double>(delay) *
                                   config_.rto_jitter_fraction * unit);
    }
    it->second.timer = queue_.schedule_after(delay, [this, key] {
        // A response, a newer leg or completion cancels the timer, so
        // it only ever fires for a leg still awaiting its response.
        auto pos = inflight_.find(key);
        PULSE_ASSERT(pos != inflight_.end(),
                     "retransmit timer outlived its operation");
        InFlight& inflight = pos->second;
        if (inflight.retransmits >= config_.max_retransmits) {
            Completion completion;
            completion.status = TraversalStatus::kMemFault;
            completion.timed_out = true;
            completion.offloaded = true;
            completion.retransmits = inflight.retransmits;
            completion.latency = queue_.now() - inflight.submit_time;
            stats_.failures.increment();
            complete(key, std::move(completion));
            return;
        }
        inflight.retransmits++;
        stats_.retransmits.increment();
        if (tracer_ != nullptr && tracer_->enabled() &&
            inflight.last_request.trace.sampled) {
            tracer_->record({RequestId{client_, key},
                             trace::SpanKind::kClientRetransmit,
                             trace::Location::kClient, client_,
                             queue_.now(), 0, inflight.retransmits});
        }
        // Karn's rule: once a leg is retransmitted, its response can
        // no longer be attributed to one copy — take no RTT sample.
        inflight.leg_retransmitted = true;
        const net::PacketHandle copy =
            packets_.acquire(inflight.last_request);
        arm_timer(key);
        network_.send_traversal(net::EndpointAddr::client(client_),
                                copy);
    });
}

void
OffloadEngine::on_response(net::PacketHandle handle)
{
    net::TraversalPacket& packet = packets_[handle];
    if (packet.id.client != client_) {
        packets_.release(handle);
        return;  // not ours (misrouted); drop
    }
    const std::uint64_t key = packet.id.seq;
    auto it = inflight_.find(key);
    if (it == inflight_.end()) {
        packets_.release(handle);
        return;  // duplicate of an already-completed request
    }
    if (packet.visit_echo != it->second.expected_echo) {
        // Stale duplicate from a leg this op already resumed past
        // (e.g. a replayed kMaxIter response racing the continuation).
        // Dropped *without* quenching the timer: the live leg is still
        // awaiting its own response.
        stats_.stale_responses.increment();
        packets_.release(handle);
        return;
    }
    if (!packet.spawns.empty()) {
        // Fork/join: fork the spawned sub-traversals, exactly once.
        // Advancing the echo first makes any replayed duplicate of
        // this response stale before the children exist, so a
        // retransmit-induced replay can never re-fork them (spawns
        // imply the visit ran >= 1 iteration, so iterations_done is
        // strictly ahead of the old echo).
        it->second.expected_echo = packet.iterations_done;
        process_spawns(key, packet);
        it = inflight_.find(key);  // re-find: the map may have rehashed
        PULSE_ASSERT(it != inflight_.end(), "parent vanished mid-fork");
    }
    InFlight& inflight = it->second;
    if (config_.adaptive_rto && !inflight.leg_retransmitted) {
        rto_.sample(queue_.now() - inflight.leg_issue_time);
    }
    queue_.cancel(inflight.timer);  // quench the timer
    inflight.timer_generation++;
    inflight.iterations = packet.iterations_done;
    if (tracer_ != nullptr && tracer_->enabled() &&
        packet.trace.sampled) {
        tracer_->record({packet.id, trace::SpanKind::kClientResponse,
                         trace::Location::kClient, client_,
                         queue_.now(),
                         config_.response_software_overhead, 0});
    }

    const bool resume_here =
        packet.status == TraversalStatus::kMaxIter ||
        (packet.status == TraversalStatus::kNotLocal &&
         !config_.switch_continuation);
    if (resume_here &&
        packet.iterations_done < kGlobalIterationGuard) {
        if (packet.status == TraversalStatus::kMaxIter) {
            inflight.continuations++;
            stats_.continuations.increment();
        } else {
            inflight.client_bounces++;
            stats_.client_bounces.increment();
        }
        const std::uint64_t iterations = packet.iterations_done;
        if (tracer_ != nullptr && tracer_->enabled() &&
            packet.trace.sampled) {
            // Request-build half of the client resume (the response
            // half was recorded above).
            tracer_->record({packet.id, trace::SpanKind::kClientSubmit,
                             trace::Location::kClient, client_,
                             queue_.now() +
                                 config_.response_software_overhead,
                             config_.request_software_overhead,
                             iterations});
        }
        // The response's slot becomes the next leg's request: its
        // cur_ptr, iterations_done and scratch are already in place.
        queue_.schedule_after(config_.response_software_overhead +
                                  config_.request_software_overhead,
                              [this, key, handle] { issue(key, handle); });
        return;
    }

    Completion completion;
    completion.status = packet.status;
    completion.fault = packet.fault;
    if (packet.status == TraversalStatus::kRejected) {
        // QoS load shed (serving plane): the visit never executed. Mark
        // the completion retryable exactly like a retransmit give-up so
        // the driver's backoff path re-submits it, and keep `rejected`
        // so clients can distinguish shed from loss.
        completion.timed_out = true;
        completion.rejected = true;
        rejections_seen_++;
        stats_.failures.increment();
    }
    completion.final_ptr = packet.cur_ptr;
    completion.scratch.assign(packet.scratch.begin(),
                              packet.scratch.end());
    completion.iterations = packet.iterations_done;
    completion.offloaded = true;
    completion.retransmits = inflight.retransmits;
    completion.client_bounces = inflight.client_bounces;
    completion.continuations = inflight.continuations;
    packets_.release(handle);
    const Time done_at =
        queue_.now() + config_.response_software_overhead;
    completion.latency = done_at - inflight.submit_time;
    queue_.schedule_after(
        config_.response_software_overhead,
        [this, key, completion = std::move(completion)]() mutable {
            complete(key, std::move(completion));
        });
}

void
OffloadEngine::complete(std::uint64_t key, Completion&& completion)
{
    auto it = inflight_.find(key);
    if (it == inflight_.end()) {
        return;
    }
    // Fork/join: an operation whose own chain ended while spawned
    // subtrees are still in flight parks its completion at the join
    // record; the last branch to join finalizes it.
    if (it->second.fork != nullptr &&
        !it->second.fork->acc.all_joined()) {
        it->second.fork->parent_done = true;
        it->second.fork->parent_completion = std::move(completion);
        return;
    }
    finalize(key, std::move(completion));
}

OffloadEngine::ForkState&
OffloadEngine::ensure_fork(std::uint64_t key)
{
    auto it = inflight_.find(key);
    PULSE_ASSERT(it != inflight_.end(),
                 "fork state for unknown operation");
    InFlight& inflight = it->second;
    if (inflight.fork == nullptr) {
        inflight.fork = std::make_unique<ForkState>();
        const isa::ProgramAnalysis& analysis =
            inflight.op.program->analysis();
        inflight.fork->acc.configure(analysis.reduce_op,
                                     analysis.reduce_lanes);
        inflight.fork->reduce_offset = analysis.reduce_offset;
    }
    return *inflight.fork;
}

void
OffloadEngine::process_spawns(std::uint64_t key,
                              const net::TraversalPacket& packet)
{
    // Capture child-creation inputs up front: emplacing children may
    // rehash the in-flight table and invalidate references.
    const auto parent_it = inflight_.find(key);
    PULSE_ASSERT(parent_it != inflight_.end(),
                 "spawns for unknown parent");
    const std::shared_ptr<const isa::Program> program =
        parent_it->second.op.program;
    const std::uint32_t child_depth = parent_it->second.depth + 1;
    const std::uint64_t root_key = parent_it->second.root_key;
    const std::uint32_t tenant = parent_it->second.op.tenant;
    ensure_fork(key);
    ensure_fork(root_key);
    const isa::ProgramAnalysis& analysis = program->analysis();

    std::uint32_t issued = 0;
    for (const isa::SpawnRecord& record : packet.spawns) {
        // DAG termination guard: the total sub-traversals under one
        // root are capped, the dynamic analogue of the global
        // iteration guard on chains.
        ForkState& root_fork = *inflight_.find(root_key)->second.fork;
        if (root_fork.total_spawned >= isa::kForkNodeGuard) {
            ForkState& fork = *inflight_.find(key)->second.fork;
            if (!fork.failed) {
                fork.failed = true;
                fork.fail_status = TraversalStatus::kExecFault;
                fork.fail_fault = isa::ExecFault::kSpawnOverflow;
            }
            break;
        }
        root_fork.total_spawned++;

        ForkState& fork = *inflight_.find(key)->second.fork;
        const bool registered = fork.acc.register_branch();
        PULSE_ASSERT(registered,
                     "join-count overflow past the fork-node guard");

        const std::uint64_t child_key = next_seq_++;
        InFlight child;
        child.op.program = program;
        child.op.start_ptr = record.start_ptr;
        // Children bill to the spawning tenant.
        child.op.tenant = tenant;
        child.submit_time = queue_.now();
        child.parent_key = key;
        child.branch_index =
            static_cast<std::uint32_t>(fork.acc.registered() - 1);
        child.depth = child_depth;
        child.root_key = root_key;
        inflight_.emplace(child_key, std::move(child));
        forks_spawned_++;

        // The child starts from a zeroed scratch_pad with the
        // spawn-time argument bytes placed at the same offsets they
        // occupied in the parent.
        const net::PacketHandle handle = packets_.acquire();
        net::TraversalPacket& request = packets_[handle];
        request.cur_ptr = record.start_ptr;
        request.iterations_done = 0;
        request.scratch.assign(
            std::max<std::size_t>(
                analysis.scratch_footprint,
                static_cast<std::size_t>(record.arg_offset) +
                    record.arg_length),
            0);
        std::memcpy(request.scratch.data() + record.arg_offset,
                    record.args, record.arg_length);

        // Client software builds one request per child, back to back.
        issued++;
        queue_.schedule_after(config_.response_software_overhead +
                                  config_.request_software_overhead *
                                      issued,
                              [this, child_key, handle] {
                                  issue(child_key, handle);
                              });
    }
}

void
OffloadEngine::finalize(std::uint64_t key, Completion&& completion)
{
    auto it = inflight_.find(key);
    PULSE_ASSERT(it != inflight_.end(), "finalize of unknown operation");
    InFlight& inflight = it->second;
    queue_.cancel(inflight.timer);
    if (inflight.fork != nullptr) {
        ForkState& fork = *inflight.fork;
        if (completion.status == TraversalStatus::kDone) {
            if (fork.failed) {
                // A branch failed; the join reports the first failure.
                completion.status = fork.fail_status;
                completion.fault = fork.fail_fault;
            } else {
                // Fold the joined subtree lanes into the own-chain
                // lanes: the commutative reduce makes this independent
                // of the order the branches completed in.
                fork.acc.fold_into(
                    completion.scratch.data(),
                    completion.scratch.size(), fork.reduce_offset);
            }
        }
        completion.iterations += fork.child_iterations;
    }
    const std::uint64_t parent_key = inflight.parent_key;
    if (parent_key == 0) {
        if (tracer_ != nullptr && tracer_->enabled()) {
            tracer_->record({RequestId{client_, key},
                             trace::SpanKind::kComplete,
                             trace::Location::kClient, client_,
                             inflight.submit_time, completion.latency,
                             completion.iterations});
        }
        CompletionFn done = std::move(inflight.op.done);
        inflight_.erase(it);
        if (done) {
            done(std::move(completion));
        }
        return;
    }
    inflight_.erase(it);
    child_joined(parent_key, std::move(completion));
}

void
OffloadEngine::child_joined(std::uint64_t parent_key,
                            Completion&& child_completion)
{
    auto it = inflight_.find(parent_key);
    PULSE_ASSERT(it != inflight_.end(),
                 "branch joined at an unknown parent");
    InFlight& parent = it->second;
    PULSE_ASSERT(parent.fork != nullptr,
                 "branch joined at a parent without a join record");
    ForkState& fork = *parent.fork;
    fork.child_iterations += child_completion.iterations;
    if (child_completion.status != TraversalStatus::kDone &&
        !fork.failed) {
        fork.failed = true;
        fork.fail_status = child_completion.status;
        fork.fail_fault = child_completion.fault;
    }
    const bool joined = fork.acc.complete_branch(
        child_completion.scratch.data(),
        child_completion.scratch.size(), fork.reduce_offset);
    PULSE_ASSERT(joined,
                 "join-count underflow: a branch joined with none "
                 "registered");
    if (fork.acc.all_joined() && fork.parent_done) {
        Completion parked = std::move(fork.parent_completion);
        finalize(parent_key, std::move(parked));
    }
}

void
OffloadEngine::run_fallback(Operation&& op)
{
    // Client-side execution with one-sided remote reads: one network
    // round trip per aggregated load, interpreter on the client CPU.
    struct FallbackState
    {
        Operation op;
        isa::Workspace workspace;
        Time submit_time = 0;
        std::uint64_t iterations = 0;
    };
    auto state = std::make_shared<FallbackState>();
    state->op = std::move(op);
    state->submit_time = queue_.now();
    state->workspace.configure(*state->op.program);
    state->workspace.cur_ptr = state->op.start_ptr;
    std::copy_n(state->op.init_scratch.begin(),
                std::min(state->op.init_scratch.size(),
                         state->workspace.scratch.size()),
                state->workspace.scratch.begin());

    auto finish = [this, state](TraversalStatus status,
                                isa::ExecFault fault) {
        Completion completion;
        completion.status = status;
        completion.fault = fault;
        completion.final_ptr = state->workspace.cur_ptr;
        completion.scratch = state->workspace.scratch;
        completion.iterations = state->iterations;
        completion.offloaded = false;
        completion.latency = queue_.now() - state->submit_time;
        if (state->op.done) {
            state->op.done(std::move(completion));
        }
    };

    // One iteration step; re-schedules itself until termination. The
    // lambda holds itself only weakly — strong references live in the
    // scheduled continuations — so the chain frees once it terminates.
    auto step = std::make_shared<std::function<void()>>();
    *step = [this, state, finish,
             weak_step = std::weak_ptr<std::function<void()>>(step)] {
        auto step = weak_step.lock();
        PULSE_ASSERT(step != nullptr, "fallback step outlived itself");
        const std::uint32_t load_bytes = state->op.program->load_bytes();
        const VirtAddr ptr = state->workspace.cur_ptr;
        if (ptr == kNullAddr && load_bytes > 0) {
            // Null-page semantics: zeros, no network access.
            std::fill_n(state->workspace.data.begin(), load_bytes, 0);
            isa::IterationResult iter = run_iteration(
                *state->op.program, state->workspace);
            state->iterations++;
            if (iter.end == isa::IterEnd::kReturn) {
                finish(TraversalStatus::kDone, isa::ExecFault::kNone);
            } else if (iter.end == isa::IterEnd::kFault) {
                finish(TraversalStatus::kExecFault, iter.fault);
            } else {
                queue_.schedule_after(
                    config_.fallback_software_overhead,
                    [step] { (*step)(); });
            }
            return;
        }
        const auto node = memory_.address_map().node_for(ptr);
        if (!node.has_value()) {
            finish(TraversalStatus::kMemFault, isa::ExecFault::kNone);
            return;
        }
        // One-sided read: request to the node, data-sized response.
        network_.send_message(
            net::EndpointAddr::client(client_),
            net::EndpointAddr::mem_node(*node), kRemoteReadRequestBytes,
            [this, state, finish, step, ptr, load_bytes,
             node = *node] {
                network_.send_message(
                    net::EndpointAddr::mem_node(node),
                    net::EndpointAddr::client(client_),
                    net::kNetHeaderBytes + load_bytes,
                    [this, state, finish, step, ptr, load_bytes] {
                        if (load_bytes > 0) {
                            memory_.read(ptr,
                                         state->workspace.data.data(),
                                         load_bytes);
                        }
                        isa::IterationResult iter = run_iteration(
                            *state->op.program, state->workspace);
                        state->iterations++;
                        // Fallback path is read-only: STOREs would need
                        // a write round trip; none of the adapted
                        // operations store on this path.
                        if (iter.end == isa::IterEnd::kFault) {
                            finish(TraversalStatus::kExecFault,
                                   iter.fault);
                            return;
                        }
                        if (iter.end == isa::IterEnd::kReturn) {
                            finish(TraversalStatus::kDone,
                                   isa::ExecFault::kNone);
                            return;
                        }
                        if (state->iterations >=
                            kGlobalIterationGuard) {
                            finish(TraversalStatus::kMaxIter,
                                   isa::ExecFault::kNone);
                            return;
                        }
                        queue_.schedule_after(
                            config_.fallback_software_overhead,
                            [step] { (*step)(); });
                    });
            });
    };
    queue_.schedule_after(state->op.init_cpu_time +
                              config_.fallback_software_overhead,
                          [step] { (*step)(); });
}

}  // namespace pulse::offload
