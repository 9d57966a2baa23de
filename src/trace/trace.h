/**
 * @file
 * Per-request tracing for the pulse simulator.
 *
 * Every offloaded traversal carries a TraceContext; instrumented
 * components (offload engine, NIC/links, switch, accelerator pipelines,
 * memory channels) record typed SpanEvents with simulated timestamps
 * into a per-cluster ring buffer (Tracer). Recording is synchronous —
 * it never schedules events and never draws randomness — so enabling
 * tracing cannot perturb simulation results, and with tracing disabled
 * (the default) every record call is a cheap branch on a null/false
 * check: zero overhead on the hot paths.
 *
 * The span durations deliberately mirror the busy-time Accumulators in
 * AccelStats one-for-one, so a trace-derived latency decomposition
 * (tools/trace_report) can be cross-checked against the counter-based
 * accounting used by bench/fig9_breakdown.
 */
#ifndef PULSE_TRACE_TRACE_H
#define PULSE_TRACE_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "common/units.h"

namespace pulse::trace {

/** Where time was spent (one enumerator per instrumented component). */
enum class SpanKind : std::uint8_t {
    kClientSubmit,      ///< request-build software time at the client
    kClientResponse,    ///< response-absorb software time at the client
    kClientRetransmit,  ///< a retransmitted copy hit the wire (point)
    kComplete,          ///< whole-operation submit -> completion span
    kNicUplink,         ///< endpoint NIC + uplink serialization + prop
    kSwitchRoute,       ///< switch pipeline
    kNicDownlink,       ///< downlink serialization + prop + NIC
    kAccelNetStackRx,   ///< accelerator network stack, parse side
    kAccelScheduler,    ///< scheduler dispatch
    kAccelWorkspaceWait,///< admission-queue wait for a free workspace
    kAccelMemPipeline,  ///< TCAM + protection + aggregated load
    kAccelLogicPipeline,///< ISA interpreter, per iteration
    kAccelNetStackTx,   ///< accelerator network stack, deparse side
    kMemChannel,        ///< DRAM channel occupancy
    kAccelQosThrottle,  ///< serving plane: parked awaiting quota tokens
    kAccelQosShed,      ///< serving plane: load-shed (kRejected)
};

/** Number of SpanKind enumerators (aggregation arrays). */
inline constexpr std::size_t kNumSpanKinds =
    static_cast<std::size_t>(SpanKind::kAccelQosShed) + 1;

/** Stable short name for exports ("net_stack_rx", ...). */
const char* span_name(SpanKind kind);

/** Which entity the recording component belongs to. */
enum class Location : std::uint8_t {
    kClient,
    kMemNode,
    kSwitch,
};

/** One recorded span. */
struct SpanEvent
{
    RequestId request;           ///< {0, 0} for unattributed spans
    SpanKind kind = SpanKind::kClientSubmit;
    Location location = Location::kClient;
    std::uint32_t location_index = 0;  ///< client/node id (0 for switch)
    Time start = 0;
    Time duration = 0;
    /** Kind-specific payload: bytes for NIC/channel/memory spans
     *  (0 marks a TCAM-only memory-pipeline span), instructions for
     *  logic spans, attempt count for retransmits, iterations for
     *  kComplete. */
    std::uint64_t detail = 0;

    friend bool operator==(const SpanEvent&, const SpanEvent&) = default;
};

/** Tracing configuration (part of ClusterConfig). */
struct TraceConfig
{
    /** Master switch. Off by default: simulation results are identical
     *  either way; tracing only adds observability. */
    bool enabled = false;

    /** Ring-buffer capacity in events; the oldest events are
     *  overwritten once full (drops are counted). */
    std::size_t ring_capacity = 1u << 20;
};

/**
 * Per-cluster span ring buffer. Components hold a Tracer* (nullptr or
 * disabled = strict no-op) and call record() at the instant a span's
 * start and duration are both known.
 */
class Tracer
{
  public:
    explicit Tracer(const TraceConfig& config = TraceConfig{});

    bool enabled() const { return enabled_; }

    /** Append one span (overwrites the oldest when full). No-op when
     *  disabled. */
    void record(const SpanEvent& event);

    /** Spans recorded since the last clear (before ring overwrite). */
    std::uint64_t recorded() const { return recorded_; }

    /** Spans lost to ring overwrite. */
    std::uint64_t dropped() const { return dropped_; }

    /** Number of retained events. */
    std::size_t size() const { return ring_.size(); }

    /** Retained events in recording order (oldest first). */
    std::vector<SpanEvent> events() const;

    /** Drop all retained events and zero the counters. */
    void clear();

    /**
     * Deterministic CSV export (one line per retained event, recording
     * order). Identically-seeded runs produce byte-identical output.
     */
    std::string to_csv() const;

  private:
    bool enabled_ = false;
    std::size_t capacity_;
    std::size_t head_ = 0;  ///< next overwrite position once saturated
    std::vector<SpanEvent> ring_;
    std::uint64_t recorded_ = 0;
    std::uint64_t dropped_ = 0;
};

/** Aggregate of one span kind across a trace. */
struct SpanAggregate
{
    std::uint64_t count = 0;
    double total_ps = 0.0;  ///< summed durations

    double
    mean_ps() const
    {
        return count ? total_ps / static_cast<double>(count) : 0.0;
    }
};

/**
 * Trace-derived per-component latency decomposition (the Fig. 9
 * breakdown, computed from spans instead of AccelStats accounting).
 */
struct Breakdown
{
    SpanAggregate per_kind[kNumSpanKinds];

    /** kAccelMemPipeline spans that performed a DRAM load
     *  (detail != 0), the denominator fig9_breakdown uses. */
    std::uint64_t dram_loads = 0;

    const SpanAggregate&
    of(SpanKind kind) const
    {
        return per_kind[static_cast<std::size_t>(kind)];
    }

    /** Network-stack ns per packet direction (rx+tx pooled). */
    double net_stack_ns_per_pkt() const;

    /** Scheduler dispatch ns per admitted request. */
    double scheduler_ns() const;

    /** Memory-pipeline ns per DRAM load (Fig. 9's per-iteration
     *  number; TCAM-only spans contribute time but no load). */
    double mem_pipeline_ns_per_load() const;

    /** Logic-pipeline ns per iteration. */
    double logic_ns_per_iter() const;
};

/** Fold @p events into a Breakdown. */
Breakdown aggregate_breakdown(const std::vector<SpanEvent>& events);

}  // namespace pulse::trace

#endif  // PULSE_TRACE_TRACE_H
