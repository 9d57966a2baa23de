#include "accel/accelerator.h"

#include <algorithm>

#include "common/logging.h"
#include "serve/qos.h"

namespace pulse::accel {

using isa::TraversalStatus;

Accelerator::Accelerator(sim::EventQueue& queue, net::Network& network,
                         mem::GlobalMemory& memory,
                         mem::ChannelSet& channels, NodeId node,
                         const AccelConfig& config)
    : queue_(queue), network_(network), packets_(network.packets()),
      memory_(memory), channels_(channels), node_(node), config_(config),
      tcam_(config.tcam_entries),
      pending_(config.sched_policy, network.packets()),
      replay_(config.replay_window_entries)
{
    PULSE_ASSERT(config.num_cores > 0, "accelerator needs cores");
    PULSE_ASSERT(config.eta_pipelines > 0, "eta must be >= 1");
    // Built once; start_logic_phase re-arms cas_base_/cas_fault_ per
    // iteration instead of rebuilding a closure (see header).
    cas_fn_ = [this](std::uint64_t mem_off, std::uint64_t expected,
                     std::uint64_t desired) {
        const auto translated = tcam_.translate_span(
            cas_base_ + mem_off, 8, mem::Perm::kReadWrite);
        if (translated.status != mem::TranslateStatus::kOk) {
            // Dual-residency window: the slab migrated after this
            // iteration's load; apply the CAS at the current owner.
            if (translated.status == mem::TranslateStatus::kMiss &&
                placement_ != nullptr) {
                const auto forwarded = placement_->try_forward_cas(
                    node_, cas_base_ + mem_off, expected, desired,
                    queue_.now());
                if (forwarded.has_value()) {
                    if (*forwarded) {
                        stats_.cas_ops.increment();
                        if (replication_ != nullptr) {
                            replication_->mirror_cas(
                                cas_base_ + mem_off, desired,
                                queue_.now());
                        }
                    }
                    return *forwarded;
                }
            }
            cas_fault_ = true;
            return false;
        }
        channels_.access(queue_.now(), 8);
        const std::uint64_t current =
            memory_.node(node_).read_as<std::uint64_t>(translated.phys);
        if (current != expected) {
            return false;
        }
        memory_.node(node_).write_as<std::uint64_t>(translated.phys,
                                                    desired);
        stats_.cas_ops.increment();
        if (replication_ != nullptr) {
            // Synchronous replication channel: the winning value is
            // applied to every live replica in the same event.
            replication_->mirror_cas(cas_base_ + mem_off, desired,
                                     queue_.now());
        }
        return true;
    };
    cores_.resize(config.num_cores);
    for (Core& core : cores_) {
        core.logic_free.assign(config.eta_pipelines, 0);
        core.workspaces.resize(config.workspaces_per_core());
    }
    network_.attach_traversal_sink(
        net::EndpointAddr::mem_node(node_),
        [this](net::PacketHandle packet) { on_packet(packet); });
}

void
Accelerator::reset_stats()
{
    stats_ = AccelStats{};
}

void
Accelerator::register_stats(const std::string& prefix,
                            StatRegistry& registry)
{
    registry.register_counter(prefix + ".requests",
                              &stats_.requests_received);
    registry.register_counter(prefix + ".responses",
                              &stats_.responses_sent);
    registry.register_counter(prefix + ".forwards",
                              &stats_.forwards_sent);
    registry.register_counter(prefix + ".iterations",
                              &stats_.iterations);
    registry.register_counter(prefix + ".loads", &stats_.loads);
    registry.register_counter(prefix + ".stores", &stats_.stores);
    registry.register_counter(prefix + ".protection_faults",
                              &stats_.protection_faults);
    registry.register_counter(prefix + ".queue_drops",
                              &stats_.queue_drops);
    registry.register_counter(prefix + ".duplicates_suppressed",
                              &stats_.duplicates_suppressed);
    registry.register_counter(prefix + ".replays_sent",
                              &stats_.replays_sent);
    registry.register_accumulator(prefix + ".net_stack_ps",
                                  &stats_.net_stack_time);
    registry.register_accumulator(prefix + ".scheduler_ps",
                                  &stats_.scheduler_time);
    registry.register_accumulator(prefix + ".mem_pipeline_ps",
                                  &stats_.mem_pipeline_time);
    registry.register_accumulator(prefix + ".logic_pipeline_ps",
                                  &stats_.logic_pipeline_time);
    registry.register_accumulator(prefix + ".workspace_wait_ps",
                                  &stats_.workspace_wait_time);
}

std::size_t
Accelerator::inflight() const
{
    std::size_t n = pending_.size();
    for (const Core& core : cores_) {
        for (const auto& ws : core.workspaces) {
            if (ws) {
                n++;
            }
        }
    }
    return n;
}

std::unique_ptr<Accelerator::Context>
Accelerator::acquire_context()
{
    if (!context_pool_.empty()) {
        std::unique_ptr<Context> context =
            std::move(context_pool_.back());
        context_pool_.pop_back();
        contexts_reused_++;
        // configure() re-zeroes the workspace on the valid-program
        // path; reset the rest here so even the invalid-program early
        // exit never sees a previous visit's state.
        context->iterations_this_visit = 0;
        context->arrival_iterations = 0;
        context->workspace.cur_ptr = kNullAddr;
        context->workspace.flags = 0;
        return context;
    }
    contexts_created_++;
    return std::make_unique<Context>();
}

void
Accelerator::release_context(std::unique_ptr<Context> context)
{
    packets_.release(context->packet);
    context_pool_.push_back(std::move(context));
}

Time
Accelerator::scaled(Time t) const
{
    if (fault_plane_ == nullptr || !fault_plane_->enabled()) {
        return t;
    }
    const double factor =
        fault_plane_->node_slow_factor(node_, queue_.now());
    if (factor == 1.0) {
        // Exact no-op outside slow windows: no float round-trip.
        return t;
    }
    return static_cast<Time>(static_cast<double>(t) * factor);
}

void
Accelerator::on_packet(net::PacketHandle handle)
{
    const net::TraversalPacket& packet = packets_[handle];
    stats_.requests_received.increment();
    // Duplicate suppression in the network stack: a visit key is
    // (request id, iterations_done), unique per node visit because
    // iterations_done only grows along a traversal.
    const ReplayWindow::Key key{packet.id, packet.iterations_done};
    if (replay_.enabled()) {
        const ReplayWindow::Claim claim = replay_.claim(key);
        switch (claim.verdict) {
            case ReplayWindow::Verdict::kInProgress:
                // Still executing; the eventual response answers both
                // copies (the client matches by id, not by copy).
                stats_.duplicates_suppressed.increment();
                packets_.release(handle);
                return;
            case ReplayWindow::Verdict::kCached:
                // Executed already: replay the recorded packet rather
                // than re-running (exactly-once for stores/CAS). This
                // also repairs a dropped forward: the cached packet IS
                // the continuation the switch re-routes.
                if (!replay_.cached_bounce(claim.ticket)) {
                    stats_.replays_sent.increment();
                    const Time parse = scaled(config_.net_stack_latency);
                    stats_.net_stack_time.add(static_cast<double>(parse));
                    if (tracing(packet)) {
                        record_span(packet,
                                    trace::SpanKind::kAccelNetStackRx,
                                    queue_.now(), parse);
                    }
                    // The replay is a copy in its own slot: the window
                    // keeps its entry for later duplicates.
                    const net::PacketHandle cached = packets_.acquire();
                    replay_.copy_response(claim.ticket, packets_[cached]);
                    packets_.release(handle);
                    queue_.schedule_after(parse, [this, cached] {
                        network_.send_traversal(
                            net::EndpointAddr::mem_node(node_), cached);
                    });
                    return;
                }
                // Exception: a zero-progress kNotLocal bounce (no
                // iteration ran, so no side effects). Its cached packet
                // only says "route me by current ownership" — and when
                // this node *became* the owner since it was recorded
                // (the slab migrated here, or the entry arrived via a
                // cutover's replay-digest handoff), replaying it would
                // bounce the packet between switch and accelerator
                // forever. Re-execute under current routes instead,
                // mirrored exactly like a new visit.
                replay_.restart(claim.ticket);
                [[fallthrough]];
            case ReplayWindow::Verdict::kNew:
                if (replication_ != nullptr) {
                    // Write-synchronous digest mirroring: replicas must
                    // suppress a retransmit of this visit even if this
                    // node dies before completing it.
                    replication_->mirror_mark(node_, key);
                }
                break;
        }
    }
    // Hardware network stack: parse the packet (rx side).
    const Time parse = scaled(config_.net_stack_latency);
    stats_.net_stack_time.add(static_cast<double>(parse));
    if (tracing(packet)) {
        record_span(packet, trace::SpanKind::kAccelNetStackRx,
                    queue_.now(), parse);
    }
    queue_.schedule_after(parse, [this, handle] { admit(handle); });
}

void
Accelerator::admit(net::PacketHandle packet)
{
    // Scheduler: parse payload, pick an idle workspace (4 ns, Fig. 9).
    const Time dispatch = scaled(config_.scheduler_latency);
    stats_.scheduler_time.add(static_cast<double>(dispatch));
    if (tracing(packets_[packet])) {
        record_span(packets_[packet], trace::SpanKind::kAccelScheduler,
                    queue_.now(), dispatch);
    }
    queue_.schedule_after(dispatch, [this, packet] {
        if (serving_ != nullptr) {
            // QoS admission: charge fresh roots against the tenant's
            // traversal quota. A throttled packet's handle now sits in
            // the controller's park queue (re-enters via readmit()
            // when the bucket refills).
            switch (serving_->charge(node_, packet)) {
              case serve::QosController::Verdict::kAdmit:
                break;
              case serve::QosController::Verdict::kThrottle:
                return;
              case serve::QosController::Verdict::kShed:
                shed_reject(packet);
                return;
            }
        }
        place(packet);
    });
}

void
Accelerator::place(net::PacketHandle handle)
{
    if (try_dispatch(handle)) {
        return;
    }
    net::TraversalPacket& packet = packets_[handle];
    if (pending_.size() >= config_.max_pending) {
        // Drop; the offload engine's timer retransmits. The visit
        // never executed, so forget it — the retransmit must be
        // allowed to run.
        stats_.queue_drops.increment();
        forget_visit({packet.id, packet.iterations_done});
        packets_.release(handle);
        return;
    }
    if (serving_ != nullptr &&
        !serving_->may_enqueue(node_, packet)) {
        // The tenant's SLO class has exhausted its queue-depth cap at
        // this node: shed with a typed rejection instead of queueing
        // (bounded queueing delay for the latency class; the offload
        // engine surfaces it as a retryable completion).
        shed_reject(handle);
        return;
    }
    packet.trace.queued_at = queue_.now();
    if (serving_ != nullptr) {
        serving_->note_enqueued(node_, packet.tenant);
    }
    pending_.push(handle);
}

void
Accelerator::set_serving(serve::QosController* serving)
{
    serving_ = serving;
    pending_.set_qos(serving);
}

void
Accelerator::readmit(net::PacketHandle handle)
{
    // The controller stamped queued_at when it parked the packet; the
    // span covers the full time spent waiting for quota tokens.
    const net::TraversalPacket& packet = packets_[handle];
    if (tracing(packet)) {
        record_span(packet, trace::SpanKind::kAccelQosThrottle,
                    packet.trace.queued_at,
                    queue_.now() - packet.trace.queued_at);
    }
    place(handle);
}

void
Accelerator::forget_visit(const ReplayWindow::Key& key)
{
    // The visit never executed, so every record of it must go — here,
    // in cutover-absorbed copies, and in the replicated digests — or a
    // retransmit would be suppressed forever.
    replay_.unmark(key);
    if (placement_ != nullptr && replay_.consume_handoff(key)) {
        placement_->mirror_unmark(node_, key);
    }
    if (replication_ != nullptr) {
        replication_->mirror_unmark(node_, key);
    }
}

void
Accelerator::shed_reject(net::PacketHandle handle)
{
    const net::TraversalPacket& packet = packets_[handle];
    if (serving_ != nullptr) {
        serving_->note_shed(node_, packet.tenant);
    }
    forget_visit({packet.id, packet.iterations_done});
    if (tracing(packet)) {
        record_span(packet, trace::SpanKind::kAccelQosShed,
                    queue_.now(), 0);
    }
    // Typed rejection: a response that never executed an iteration.
    // The offload engine surfaces it as a timed_out+rejected
    // completion, riding the driver's existing retry/backoff path.
    const net::PacketHandle out = packets_.acquire();
    net::TraversalPacket& response = packets_[out];
    response.id = packet.id;
    response.origin = packet.origin;
    response.tenant = packet.tenant;
    response.is_response = true;
    response.status = TraversalStatus::kRejected;
    response.fault = isa::ExecFault::kNone;
    response.cur_ptr = packet.cur_ptr;
    response.iterations_done = packet.iterations_done;
    response.visit_echo = packet.visit_echo;
    response.trace = net::TraceContext{.sampled = packet.trace.sampled};
    response.checksum = 0;
    // Never a switch continuation: a rejection always returns to the
    // origin client.
    response.allow_switch_continuation = false;
    response.code = packet.code;
    response.code_size = net::kCodeIdBytes;
    response.scratch.assign(packet.scratch.data(), packet.scratch.size());
    response.spawns.clear();
    response.spawn_depth = packet.spawn_depth;
    response.parent_id = packet.parent_id;
    response.branch_index = packet.branch_index;
    packets_.release(handle);
    stats_.responses_sent.increment();
    const Time deparse = scaled(config_.net_stack_latency);
    stats_.net_stack_time.add(static_cast<double>(deparse));
    if (tracing(response)) {
        record_span(response, trace::SpanKind::kAccelNetStackTx,
                    queue_.now(), deparse);
    }
    queue_.schedule_after(deparse, [this, out] {
        network_.send_traversal(net::EndpointAddr::mem_node(node_), out);
    });
}

bool
Accelerator::try_dispatch(net::PacketHandle handle)
{
    // Pick the core with the most free workspaces (load balance).
    Core* best_core = nullptr;
    CoreId best_id = 0;
    std::size_t best_free = 0;
    for (CoreId c = 0; c < cores_.size(); c++) {
        std::size_t free_slots = 0;
        for (const auto& ws : cores_[c].workspaces) {
            if (!ws) {
                free_slots++;
            }
        }
        if (free_slots > best_free) {
            best_free = free_slots;
            best_core = &cores_[c];
            best_id = c;
        }
    }
    if (best_core == nullptr) {
        return false;
    }

    WorkspaceId slot = 0;
    while (best_core->workspaces[slot]) {
        slot++;
    }

    std::unique_ptr<Context> context = acquire_context();
    const net::TraversalPacket& packet = packets_[handle];
    context->packet = handle;
    context->arrival_iterations = packet.iterations_done;
    context->iterations_this_visit = 0;
    if (invariants_ != nullptr && replay_.enabled()) {
        const ReplayWindow::Key key{packet.id,
                                    context->arrival_iterations};
        if (!executed_visits_.insert(key).second) {
            invariants_->report(check::Violation{
                .kind = check::InvariantKind::kDuplicateExecution,
                .when = queue_.now(),
                .packet = packet.id,
                .component =
                    "accel.node" + std::to_string(node_),
                .message = "visit " +
                           std::to_string(context->arrival_iterations) +
                           " began executing twice (replay window "
                           "failed to suppress a duplicate)"});
        }
    }
    if (!packet.code->analysis().valid) {
        // Reject malformed programs with an execution fault response.
        send_response(*context, TraversalStatus::kExecFault,
                      isa::ExecFault::kIllegalInstruction);
        release_context(std::move(context));
        return true;
    }
    context->workspace.configure(*packet.code);
    context->workspace.cur_ptr = packet.cur_ptr;
    context->workspace.spawn_depth = packet.spawn_depth;
    std::copy_n(packet.scratch.begin(),
                std::min(packet.scratch.size(),
                         context->workspace.scratch.size()),
                context->workspace.scratch.begin());

    best_core->workspaces[slot] = std::move(context);
    start_memory_phase(best_id, slot);
    return true;
}

void
Accelerator::start_memory_phase(CoreId core_id, WorkspaceId ws)
{
    Core& core = cores_[core_id];
    Context& context = *core.workspaces[ws];
    const net::TraversalPacket& packet = packets_[context.packet];
    const Time now = queue_.now();
    const std::uint32_t load_bytes = packet.code->load_bytes();

    if (load_bytes == 0) {
        start_logic_phase(core_id, ws, now);
        return;
    }

    // Null-page semantics: a null cur_ptr loads zeros without touching
    // DRAM, so programs can use cur_ptr == 0 as a termination test.
    if (context.workspace.cur_ptr == kNullAddr) {
        const Time tcam_cost = scaled(config_.mem_pipeline_latency / 4);
        stats_.mem_pipeline_time.add(static_cast<double>(tcam_cost));
        if (tracing(packet)) {
            // detail == 0: TCAM-only span, no DRAM load performed.
            record_span(packet,
                        trace::SpanKind::kAccelMemPipeline, now,
                        tcam_cost);
        }
        queue_.schedule_after(tcam_cost, [this, core_id, ws, load_bytes] {
            Core& c = cores_[core_id];
            Context& ctx = *c.workspaces[ws];
            std::fill_n(ctx.workspace.data.begin(), load_bytes, 0);
            start_logic_phase(core_id, ws, queue_.now());
        });
        return;
    }

    // Address translation + protection (TCAM, part of the memory
    // pipeline's 120 ns). A miss means the pointer lives on another
    // node: hierarchical translation hands the request back to the
    // switch (section 5).
    const auto translated = tcam_.translate_span(
        context.workspace.cur_ptr, load_bytes, mem::Perm::kRead);
    if (translated.status == mem::TranslateStatus::kMiss) {
        const Time tcam_cost = scaled(config_.mem_pipeline_latency / 4);
        stats_.mem_pipeline_time.add(static_cast<double>(tcam_cost));
        if (tracing(packet)) {
            record_span(packet,
                        trace::SpanKind::kAccelMemPipeline, now,
                        tcam_cost);
        }
        queue_.schedule_after(tcam_cost, [this, core_id, ws] {
            finish(core_id, ws, TraversalStatus::kNotLocal,
                   isa::ExecFault::kNone);
        });
        return;
    }
    if (translated.status == mem::TranslateStatus::kProtectionFault) {
        stats_.protection_faults.increment();
        const Time tcam_cost = scaled(config_.mem_pipeline_latency / 4);
        stats_.mem_pipeline_time.add(static_cast<double>(tcam_cost));
        if (tracing(packet)) {
            record_span(packet,
                        trace::SpanKind::kAccelMemPipeline, now,
                        tcam_cost);
        }
        queue_.schedule_after(tcam_cost, [this, core_id, ws] {
            finish(core_id, ws, TraversalStatus::kMemFault,
                   isa::ExecFault::kNone);
        });
        return;
    }

    // Issue the aggregated load: the pipeline issues back-to-back at
    // channel occupancy granularity (AXI bursts in flight), each load
    // completing after the full access latency. The data registers
    // receive a snapshot of memory as of the issue time — concurrent
    // writers (STOREs, CAS) landing while the load is in flight are
    // not observed, which is what makes CAS retry loops meaningful.
    const Time start = std::max(now, core.mem_pipe_free);
    const Time channel_done = channels_.access(start, load_bytes);
    const Time done = std::max(
        start + scaled(config_.mem_pipeline_latency), channel_done);
    core.mem_pipe_free = channel_done;
    stats_.loads.increment();
    if (placement_ != nullptr) {
        placement_->record_access(context.workspace.cur_ptr,
                                  load_bytes);
    }
    stats_.mem_pipeline_time.add(static_cast<double>(done - start));
    if (tracing(packet)) {
        record_span(packet, trace::SpanKind::kAccelMemPipeline,
                    start, done - start, load_bytes);
    }

    memory_.node(node_).read(translated.phys,
                             context.workspace.data.data(),
                             load_bytes);
    queue_.schedule_at(done, [this, core_id, ws] {
        start_logic_phase(core_id, ws, queue_.now());
    });
}

void
Accelerator::start_logic_phase(CoreId core_id, WorkspaceId ws,
                               Time mem_done)
{
    Core& core = cores_[core_id];

    // Static workspace -> logic-pipeline binding (Fig. 3's staggered
    // schedule: each logic pipeline multiplexes two workspaces). The
    // functional execution happens at the logic pipeline's actual
    // start time (a separate event), so memory effects from other
    // in-flight iterators can interleave between a workspace's LOAD
    // and its logic — which is what makes CAS contention observable.
    const std::uint32_t lp = ws % config_.eta_pipelines;
    const Time start = std::max(mem_done, core.logic_free[lp]);
    if (start > queue_.now()) {
        queue_.schedule_at(start, [this, core_id, ws] {
            start_logic_phase(core_id, ws, queue_.now());
        });
        return;
    }
    Context& context = *core.workspaces[ws];
    net::TraversalPacket& packet = packets_[context.packet];

    // Functional execution of the iteration's logic. The CAS
    // extension performs its read-modify-write through the TCAM and
    // channels inside cas_fn_ (built once at construction);
    // event-level execution makes it atomic. Iterations run
    // synchronously and never nest, so the member operand slots are
    // safe to re-arm here.
    cas_base_ = packet.cur_ptr;
    cas_fault_ = false;
    isa::IterationResult iter =
        run_iteration(*packet.code, context.workspace, cas_fn_);
    const bool cas_fault = cas_fault_;
    const Time t_c =
        scaled(static_cast<Time>(iter.instructions_executed) *
               config_.logic_time_per_insn);
    const Time done = start + t_c;
    // The datapath is pipelined: the next iterator may enter after the
    // initiation interval, not the full latency.
    const Time interval = std::max<Time>(
        t_c / std::max<std::uint32_t>(config_.logic_pipeline_depth, 1),
        1);
    core.logic_free[lp] = start + interval;
    stats_.logic_pipeline_time.add(static_cast<double>(t_c));
    stats_.logic_busy_time.add(static_cast<double>(interval));
    if (tracing(packet)) {
        record_span(packet,
                    trace::SpanKind::kAccelLogicPipeline, start, t_c,
                    iter.instructions_executed);
    }
    stats_.iterations.increment();
    packet.iterations_done++;
    context.iterations_this_visit++;

    // Apply write-backs through the memory channels.
    bool store_fault = false;
    const VirtAddr iter_ptr = packet.cur_ptr;
    for (const isa::PendingStore& st : iter.stores) {
        const auto translated = tcam_.translate_span(
            iter_ptr + st.mem_offset, st.length, mem::Perm::kWrite);
        if (translated.status != mem::TranslateStatus::kOk) {
            // Dual-residency window: a cutover raced this iteration
            // (its load translated here before the slab moved). The
            // write is applied at the current owner via the placement
            // plane — never a spurious fault, never stale bytes.
            if (translated.status == mem::TranslateStatus::kMiss &&
                placement_ != nullptr &&
                placement_->try_forward_store(
                    node_, iter_ptr + st.mem_offset,
                    context.workspace.data.data() + st.data_offset,
                    st.length, done)) {
                stats_.stores.increment();
                if (replication_ != nullptr) {
                    replication_->mirror_store(
                        iter_ptr + st.mem_offset,
                        context.workspace.data.data() + st.data_offset,
                        st.length, done);
                }
                continue;
            }
            stats_.protection_faults.increment();
            store_fault = true;
            break;
        }
        channels_.access(done, st.length);
        memory_.node(node_).write(
            translated.phys,
            context.workspace.data.data() + st.data_offset, st.length);
        stats_.stores.increment();
        if (replication_ != nullptr) {
            replication_->mirror_store(
                iter_ptr + st.mem_offset,
                context.workspace.data.data() + st.data_offset,
                st.length, done);
        }
    }

    // Fork/join: collect the iteration's SPAWN records onto the packet.
    // The visit ends the moment an iteration spawns ("spawn flush"), so
    // the list can only overflow under a broken implementation (e.g.
    // the double-join mutation) — fault instead of dropping branches.
    bool spawn_overflow = false;
    for (const isa::SpawnRecord& record : iter.spawns) {
        if (!packet.spawns.push(record)) {
            spawn_overflow = true;
            break;
        }
    }

    TraversalStatus status = TraversalStatus::kDone;
    isa::ExecFault fault = isa::ExecFault::kNone;
    bool continue_traversal = false;
    if (cas_fault) {
        stats_.protection_faults.increment();
        store_fault = true;
    }
    if (store_fault) {
        status = TraversalStatus::kMemFault;
    } else if (spawn_overflow) {
        status = TraversalStatus::kExecFault;
        fault = isa::ExecFault::kSpawnOverflow;
    } else if (iter.end == isa::IterEnd::kFault) {
        status = TraversalStatus::kExecFault;
        fault = iter.fault;
    } else if (iter.end == isa::IterEnd::kReturn) {
        status = TraversalStatus::kDone;
    } else if (iter.end == isa::IterEnd::kJoin) {
        // The chain is done; the engine holds the request open until
        // every spawned subtree has reduced into the join record.
        status = TraversalStatus::kDone;
    } else if (!iter.spawns.empty()) {
        // Spawn flush: ship the records to the issuing engine now (it
        // forks the children) and let it resume this traversal with a
        // fresh visit — same resume semantics as a MAX_ITER bounce.
        status = TraversalStatus::kMaxIter;
    } else {
        // MAX_ITER is a per-request (per-visit) budget (section 3.1):
        // a continuation re-issued by the client or another node gets a
        // fresh budget while iterations_done keeps the global count.
        const std::uint64_t cap =
            std::min<std::uint64_t>(packet.code->max_iters(),
                                    config_.max_iters_cap);
        if (context.iterations_this_visit >= cap) {
            status = TraversalStatus::kMaxIter;
        } else {
            continue_traversal = true;
        }
    }

    if (continue_traversal) {
        // Commit the next pointer and hand back to the memory pipeline.
        queue_.schedule_at(done, [this, core_id, ws] {
            Context& ctx = *cores_[core_id].workspaces[ws];
            packets_[ctx.packet].cur_ptr = ctx.workspace.cur_ptr;
            start_memory_phase(core_id, ws);
        });
    } else {
        queue_.schedule_at(done, [this, core_id, ws, status, fault] {
            finish(core_id, ws, status, fault);
        });
    }
}

void
Accelerator::finish(CoreId core_id, WorkspaceId ws,
                    TraversalStatus status, isa::ExecFault fault)
{
    Core& core = cores_[core_id];
    std::unique_ptr<Context> context = std::move(core.workspaces[ws]);
    send_response(*context, status, fault);
    release_context(std::move(context));

    if (!pending_.empty()) {
        const net::PacketHandle handle = pending_.pop();
        const net::TraversalPacket& next = packets_[handle];
        if (serving_ != nullptr) {
            serving_->note_dequeued(node_, next.tenant);
        }
        // The request waited in the admission queue for a workspace
        // from queued_at until now (Fig. 9's "workspace wait" slice;
        // zero for requests dispatched straight from the scheduler).
        const Time waited = queue_.now() - next.trace.queued_at;
        stats_.workspace_wait_time.add(static_cast<double>(waited));
        if (tracing(next)) {
            record_span(next, trace::SpanKind::kAccelWorkspaceWait,
                        next.trace.queued_at, waited);
        }
        const bool dispatched = try_dispatch(handle);
        PULSE_ASSERT(dispatched, "dispatch must succeed after a free");
    }
}

void
Accelerator::send_response(Context& context, TraversalStatus status,
                           isa::ExecFault fault)
{
    // Filled field by field into a fresh slot: the request stays with
    // the context until release_context().
    const net::TraversalPacket& request = packets_[context.packet];
    const net::PacketHandle out = packets_.acquire();
    net::TraversalPacket& response = packets_[out];
    response.id = request.id;
    response.origin = request.origin;
    response.tenant = request.tenant;
    response.is_response = true;
    response.status = status;
    response.fault = fault;
    const isa::ProgramAnalysis& analysis = request.code->analysis();
    response.cur_ptr =
        analysis.valid ? context.workspace.cur_ptr : request.cur_ptr;
    response.iterations_done = request.iterations_done;
    response.visit_echo = request.visit_echo;
    response.trace = net::TraceContext{.sampled = request.trace.sampled};
    response.checksum = 0;
    // pulse vs pulse-ACC: the issuing engine stamped the mode
    // (OffloadConfig::switch_continuation) on the request.
    response.allow_switch_continuation = request.allow_switch_continuation;
    response.code = request.code;
    // Responses and forwarded continuations reference installed code.
    response.code_size = net::kCodeIdBytes;

    // Ship the scratch_pad footprint (state travels with the request,
    // section 5's stateful-continuation mechanism).
    const std::size_t footprint = std::max<std::size_t>(
        analysis.scratch_footprint, request.scratch.size());
    response.scratch.assign(
        context.workspace.scratch.data(),
        std::min(footprint, context.workspace.scratch.size()));
    // Fork/join: the spawn records collected this visit travel back to
    // the issuing engine; lineage and depth are echoed so the engine
    // (or a failover replica's) can rendezvous the packet at the
    // parent's join record. Only the records in use are copied.
    response.spawns.clear();
    for (const isa::SpawnRecord& record : request.spawns) {
        response.spawns.push(record);
    }
    response.spawn_depth = request.spawn_depth;
    response.parent_id = request.parent_id;
    response.branch_index = request.branch_index;

    if (status == TraversalStatus::kNotLocal &&
        response.allow_switch_continuation) {
        stats_.forwards_sent.increment();
    } else {
        stats_.responses_sent.increment();
    }
    // Complete the visit in the replay window: duplicates arriving
    // from now on get this exact packet replayed.
    const ReplayWindow::Key visit_key{request.id,
                                      context.arrival_iterations};
    replay_.record_response(visit_key, response);
    if (placement_ != nullptr && replay_.consume_handoff(visit_key)) {
        // A migration cutover absorbed this still-executing visit into
        // another node's window; complete the absorbed copies so a
        // retransmit routed to the new owner replays this response.
        placement_->mirror_completion(node_, visit_key, response);
    }
    if (replication_ != nullptr) {
        // Mirror the completed visit into the replicas' windows: if
        // this node dies before the response escapes, the retransmit
        // that lands on the surviving replica replays this packet
        // instead of re-executing its stores.
        replication_->mirror_response(node_, visit_key, response);
    }
    const Time deparse = scaled(config_.net_stack_latency);
    stats_.net_stack_time.add(static_cast<double>(deparse));
    if (tracing(response)) {
        record_span(response, trace::SpanKind::kAccelNetStackTx,
                    queue_.now(), deparse);
    }
    queue_.schedule_after(deparse, [this, out] {
        network_.send_traversal(net::EndpointAddr::mem_node(node_), out);
    });
}

void
Accelerator::checkpoint(StateIo& io)
{
    PULSE_ASSERT(inflight() == 0,
                 "checkpoint requires a quiesced accelerator");
    io.tag("ACCL");
    io.expect(std::uint64_t{cores_.size()}, "core count");
    for (Core& core : cores_) {
        io.i64(core.mem_pipe_free);
        io.expect(std::uint64_t{core.logic_free.size()},
                  "logic-pipeline count");
        for (Time& t : core.logic_free) {
            io.i64(t);
        }
    }
    tcam_.checkpoint(io);
    for (Counter* counter :
         {&stats_.requests_received, &stats_.responses_sent,
          &stats_.forwards_sent, &stats_.iterations, &stats_.loads,
          &stats_.stores, &stats_.cas_ops, &stats_.protection_faults,
          &stats_.queue_drops, &stats_.duplicates_suppressed,
          &stats_.replays_sent}) {
        counter->checkpoint(io);
    }
    for (Accumulator* acc :
         {&stats_.net_stack_time, &stats_.scheduler_time,
          &stats_.mem_pipeline_time, &stats_.logic_pipeline_time,
          &stats_.logic_busy_time, &stats_.workspace_wait_time}) {
        acc->checkpoint(io);
    }
}

}  // namespace pulse::accel
