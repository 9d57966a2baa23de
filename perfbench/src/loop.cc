#include "loop.h"

namespace perfbench {

using namespace pulse;

Counters
Counters::take(core::Cluster& cluster, std::uint64_t completed)
{
    Counters c;
    c.now = cluster.queue().now();
    c.events = cluster.queue().events_executed();
    c.completed = completed;
    for (NodeId node = 0; node < cluster.memory().num_nodes(); node++) {
        const accel::AccelStats& stats = cluster.accelerator(node).stats();
        c.requests += stats.requests_received.value();
        c.forwards += stats.forwards_sent.value();
        c.drops += stats.queue_drops.value();
        c.wait_ps += stats.workspace_wait_time.sum();
        c.logic_busy_ps += stats.logic_busy_time.sum();
        c.mem_bytes += cluster.channels(node).bytes_transferred();
        c.node_requests.push_back(stats.requests_received.value());
    }
    c.client_bytes = cluster.client_network_bytes();
    const offload::OffloadStats& engine =
        cluster.offload_engine().stats();
    c.submitted = engine.submitted.value();
    c.fallback = engine.fallback.value();
    c.retransmits = engine.retransmits.value();
    c.continuations = engine.continuations.value();
    if (const placement::PlacementPlane* plane = cluster.placement_plane()) {
        c.migrations = plane->migration_stats().completed.value();
        c.migration_bytes = plane->migration_stats().bytes_copied.value();
        c.plane_forwards = plane->stats().store_forwards.value() +
                           plane->stats().cas_forwards.value();
    }
    if (const replication::ReplicationPlane* plane =
            cluster.replication_plane()) {
        c.mirrors = plane->stats().store_mirrors.value() +
                    plane->stats().cas_mirrors.value();
        c.replica_bytes = plane->stats().bytes_copied.value();
    }
    return c;
}

void
SimFold::add(const std::vector<trace::SpanEvent>& events)
{
    const trace::Breakdown part = trace::aggregate_breakdown(events);
    for (std::size_t k = 0; k < trace::kNumSpanKinds; k++) {
        breakdown.per_kind[k].count += part.per_kind[k].count;
        breakdown.per_kind[k].total_ps += part.per_kind[k].total_ps;
    }
    breakdown.dram_loads += part.dram_loads;
    for (const trace::SpanEvent& event : events) {
        if (event.kind == trace::SpanKind::kAccelLogicPipeline) {
            instructions += event.detail;
        }
    }
    spans += events.size();
}

Loop::Loop(Rig& rig, SpanLog& spans)
    : rig_(rig), spans_(spans),
      submit_(rig.cluster().submitter(core::SystemKind::kPulse))
{
}

void
Loop::start(std::uint32_t concurrency, std::uint64_t ops)
{
    limit_ = ops == kUnbounded ? kUnbounded : issued_ + ops;
    slots_.assign(concurrency, OpRecord{});
    for (std::uint32_t slot = 0; slot < concurrency && issued_ < limit_;
         slot++) {
        issue(slot);
    }
}

void
Loop::issue(std::uint32_t slot)
{
    const std::uint32_t gen = spans_.begin(HostLayer::kGen, drain_span_);
    offload::Operation op = rig_.next(&slots_[slot]);
    spans_.end(gen);
    op.done = [this, slot](offload::Completion&& completion) {
        on_done(slot, std::move(completion));
    };
    issued_++;
    const std::uint32_t submit =
        spans_.begin(HostLayer::kSubmit, drain_span_);
    submit_(std::move(op));
    spans_.end(submit);
}

void
Loop::on_done(std::uint32_t slot, offload::Completion&& completion)
{
    done_++;
    const std::uint32_t parse =
        spans_.begin(HostLayer::kParse, drain_span_);
    outcomes_.push_back(rig_.parse(slots_[slot], completion));
    if (latencies_ != nullptr) {
        latencies_->push_back(completion.latency);
    }
    if (digest_on_) {
        const Outcome& out = outcomes_.back();
        const std::uint64_t words[] = {
            static_cast<std::uint64_t>(completion.status),
            completion.timed_out, completion.iterations,
            static_cast<std::uint64_t>(completion.latency), out.w0, out.w1,
            out.w2};
        digest_ = fnv1a(words, sizeof(words), digest_);
    }
    spans_.end(parse);
    if (issued_ < limit_) {
        issue(slot);
    }
}

double
Loop::advance(std::uint64_t target)
{
    sim::EventQueue& queue = rig_.cluster().queue();
    drain_span_ = spans_.begin(HostLayer::kDrain);
    const double start = thread_cpu_s();
    while (done_ < target) {
        if (!queue.step()) {
            stalled_ = true;
            break;
        }
    }
    const double elapsed = thread_cpu_s() - start;
    spans_.end(drain_span_);
    drain_span_ = SpanLog::kNoParent;
    return elapsed;
}

void
Loop::drain()
{
    limit_ = issued_;
    rig_.cluster().queue().run();
}

std::uint64_t
Loop::verify_pending()
{
    const std::uint32_t span = spans_.begin(HostLayer::kVerify);
    std::uint64_t failed = 0;
    for (const Outcome& outcome : outcomes_) {
        failed += rig_.verify(outcome) ? 0 : 1;
    }
    outcomes_.clear();
    spans_.end(span);
    return failed;
}

void
Loop::fold_trace(SimFold* fold)
{
    trace::Tracer& tracer = rig_.cluster().tracer();
    if (!tracer.enabled()) {
        return;
    }
    if (fold != nullptr) {
        fold->add(tracer.events());
    }
    trace_dropped_ += tracer.dropped();
    tracer.clear();
}

}  // namespace perfbench
