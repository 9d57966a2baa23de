/**
 * @file
 * The benchmark's closed-loop driver, and the snapshots of simulated
 * counters and trace spans it takes between chunks.
 *
 * The loop runs the event queue itself (EventQueue::step until a target
 * completion count), so it can stop between events at exact completion
 * counts without moving the simulated clock: pausing, timing and
 * folding trace spans never change a simulated result.
 */
#ifndef PERFBENCH_LOOP_H
#define PERFBENCH_LOOP_H

#include <cstdint>
#include <limits>
#include <vector>

#include "rig.h"
#include "spans.h"
#include "trace/trace.h"

namespace perfbench {

/** Simulated-side counters summed over nodes, at one instant. */
struct Counters
{
    pulse::Time now = 0;
    std::uint64_t events = 0;
    std::uint64_t completed = 0;
    std::uint64_t requests = 0;
    std::uint64_t forwards = 0;
    std::uint64_t drops = 0;
    double wait_ps = 0.0;
    double logic_busy_ps = 0.0;
    std::uint64_t mem_bytes = 0;
    std::uint64_t client_bytes = 0;
    std::uint64_t submitted = 0;
    std::uint64_t fallback = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t continuations = 0;
    std::uint64_t migrations = 0;
    std::uint64_t migration_bytes = 0;
    std::uint64_t plane_forwards = 0;
    std::uint64_t mirrors = 0;
    std::uint64_t replica_bytes = 0;
    std::vector<std::uint64_t> node_requests;

    static Counters take(pulse::core::Cluster& cluster,
                         std::uint64_t completed);
};

/** Simulated spans of one phase, folded as they are drained. */
struct SimFold
{
    pulse::trace::Breakdown breakdown;
    std::uint64_t instructions = 0;  ///< logic spans' instruction counts
    std::uint64_t spans = 0;

    void add(const std::vector<pulse::trace::SpanEvent>& events);
};

/** Closed-loop issuing, chunked draining, deferred checking. */
class Loop
{
  public:
    static constexpr std::uint64_t kUnbounded =
        std::numeric_limits<std::uint64_t>::max();

    Loop(Rig& rig, SpanLog& spans);

    Loop(const Loop&) = delete;
    Loop& operator=(const Loop&) = delete;

    /** Fill @p concurrency slots; each completion issues the next op
     *  until @p ops more have been issued (kUnbounded: no limit). */
    void start(std::uint32_t concurrency, std::uint64_t ops);

    /** Step events until @p target completions; returns the thread-CPU
     *  seconds spent. If the event queue empties first, the loop is
     *  stalled: it stops there and stalled() turns true. */
    double advance(std::uint64_t target);

    /** Issue nothing more and step until the event queue is empty;
     *  every issued op that never completed is then lost. */
    void drain();

    std::uint64_t issued() const { return issued_; }
    std::uint64_t done() const { return done_; }
    bool stalled() const { return stalled_; }

    /** Record simulated latencies of completions into @p sink
     *  (nullptr stops recording). */
    void collect(std::vector<pulse::Time>* sink) { latencies_ = sink; }

    /** Fold completions into the digest while @p on. */
    void set_digest(bool on) { digest_on_ = on; }
    std::uint64_t digest() const { return digest_; }

    /** Check every completion parsed since the last call; returns the
     *  number that failed. Runs outside the timed chunks. */
    std::uint64_t verify_pending();

    /** Fold and clear the tracer's spans into @p fold (nullptr just
     *  clears); accumulates drops. No-op when tracing is off. */
    void fold_trace(SimFold* fold);

    std::uint64_t trace_dropped() const { return trace_dropped_; }

  private:
    void issue(std::uint32_t slot);
    void on_done(std::uint32_t slot, pulse::offload::Completion&& c);

    Rig& rig_;
    SpanLog& spans_;
    pulse::workloads::SubmitFn submit_;
    std::vector<OpRecord> slots_;
    std::vector<Outcome> outcomes_;
    std::vector<pulse::Time>* latencies_ = nullptr;
    std::uint64_t issued_ = 0;
    std::uint64_t limit_ = 0;
    std::uint64_t done_ = 0;
    std::uint64_t digest_ = 0xcbf29ce484222325ull;
    bool digest_on_ = false;
    bool stalled_ = false;
    std::uint32_t drain_span_ = SpanLog::kNoParent;
    std::uint64_t trace_dropped_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOOP_H
