/**
 * @file
 * Tests for the tracing + metrics layer (src/trace): the span ring
 * buffer, the deterministic exports, the metrics exporter, and the
 * end-to-end properties the subsystem promises — tracing must not
 * perturb simulation results, identically-seeded runs must export
 * byte-identical traces, and the trace-derived latency decomposition
 * must agree with the accelerator's built-in busy-time accounting.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "ds/linked_list.h"
#include "serve/fleet.h"
#include "trace/metrics_exporter.h"
#include "trace/trace.h"

namespace pulse {
namespace {

using trace::Location;
using trace::SpanEvent;
using trace::SpanKind;

SpanEvent
make_event(std::uint64_t seq, Time start = 0, Time duration = 10)
{
    SpanEvent event;
    event.request = RequestId{0, seq};
    event.kind = SpanKind::kAccelScheduler;
    event.location = Location::kMemNode;
    event.start = start;
    event.duration = duration;
    return event;
}

// ----------------------------------------------------------- tracer

TEST(Tracer, DisabledRecordsNothing)
{
    trace::Tracer tracer;  // default config: disabled
    EXPECT_FALSE(tracer.enabled());
    tracer.record(make_event(1));
    EXPECT_EQ(tracer.size(), 0u);
    EXPECT_EQ(tracer.recorded(), 0u);
}

TEST(Tracer, RecordsInOrder)
{
    trace::TraceConfig config;
    config.enabled = true;
    trace::Tracer tracer(config);
    for (std::uint64_t seq = 0; seq < 5; seq++) {
        tracer.record(make_event(seq));
    }
    const auto events = tracer.events();
    ASSERT_EQ(events.size(), 5u);
    for (std::uint64_t seq = 0; seq < 5; seq++) {
        EXPECT_EQ(events[seq].request.seq, seq);
    }
    EXPECT_EQ(tracer.recorded(), 5u);
    EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Tracer, RingOverwritesOldest)
{
    trace::TraceConfig config;
    config.enabled = true;
    config.ring_capacity = 4;
    trace::Tracer tracer(config);
    for (std::uint64_t seq = 0; seq < 7; seq++) {
        tracer.record(make_event(seq));
    }
    EXPECT_EQ(tracer.size(), 4u);
    EXPECT_EQ(tracer.recorded(), 7u);
    EXPECT_EQ(tracer.dropped(), 3u);
    const auto events = tracer.events();
    ASSERT_EQ(events.size(), 4u);
    // The oldest retained event is seq 3; order is preserved.
    for (std::uint64_t i = 0; i < 4; i++) {
        EXPECT_EQ(events[i].request.seq, i + 3);
    }
}

TEST(Tracer, ClearResetsEverything)
{
    trace::TraceConfig config;
    config.enabled = true;
    config.ring_capacity = 2;
    trace::Tracer tracer(config);
    for (std::uint64_t seq = 0; seq < 5; seq++) {
        tracer.record(make_event(seq));
    }
    tracer.clear();
    EXPECT_EQ(tracer.size(), 0u);
    EXPECT_EQ(tracer.recorded(), 0u);
    EXPECT_EQ(tracer.dropped(), 0u);
    tracer.record(make_event(9));
    ASSERT_EQ(tracer.events().size(), 1u);
    EXPECT_EQ(tracer.events()[0].request.seq, 9u);
}

TEST(Tracer, CsvHasHeaderAndOneLinePerEvent)
{
    trace::TraceConfig config;
    config.enabled = true;
    trace::Tracer tracer(config);
    tracer.record(make_event(7, nanos(1.0), nanos(2.0)));
    const std::string csv = tracer.to_csv();
    EXPECT_EQ(csv,
              "client,seq,kind,location,location_index,start_ps,"
              "duration_ps,detail\n"
              "0,7,scheduler,node,0,1000,2000,0\n");
}

TEST(Trace, AggregateBreakdownCountsLoads)
{
    std::vector<SpanEvent> events;
    SpanEvent mem = make_event(1, 0, nanos(120.0));
    mem.kind = SpanKind::kAccelMemPipeline;
    mem.detail = 64;  // performed a DRAM load
    events.push_back(mem);
    mem.detail = 0;  // TCAM-only (null pointer chase)
    mem.duration = nanos(6.0);
    events.push_back(mem);
    SpanEvent logic = make_event(1, 0, nanos(7.0));
    logic.kind = SpanKind::kAccelLogicPipeline;
    events.push_back(logic);

    const trace::Breakdown breakdown =
        trace::aggregate_breakdown(events);
    EXPECT_EQ(breakdown.of(SpanKind::kAccelMemPipeline).count, 2u);
    EXPECT_EQ(breakdown.dram_loads, 1u);
    // Per-load time divides the full pipeline time by loads only.
    EXPECT_DOUBLE_EQ(breakdown.mem_pipeline_ns_per_load(), 126.0);
    EXPECT_DOUBLE_EQ(breakdown.logic_ns_per_iter(), 7.0);
}

// ------------------------------------------------- metrics exporter

TEST(MetricsExporter, DeterministicSortedJson)
{
    trace::MetricsExporter exporter;
    exporter.set("b.second", 2.5);
    exporter.set("a.first", 1.0);
    const std::string json = exporter.json();
    EXPECT_EQ(json,
              "{\n  \"a.first\": 1,\n  \"b.second\": 2.5\n}\n");
    trace::MetricsExporter same;
    same.set("a.first", 1.0);
    same.set("b.second", 2.5);
    EXPECT_EQ(same.json(), json);
}

TEST(MetricsExporter, CsvRender)
{
    trace::MetricsExporter exporter;
    exporter.set("x", 0.1);
    EXPECT_EQ(exporter.csv(), "metric,value\nx,0.1\n");
}

TEST(MetricsExporter, HistogramSummary)
{
    Histogram histogram;
    for (int i = 1; i <= 10; i++) {
        histogram.add(i);
    }
    trace::MetricsExporter exporter;
    exporter.add_histogram("lat", histogram);
    const std::string json = exporter.json();
    EXPECT_NE(json.find("\"lat.count\": 10"), std::string::npos);
    EXPECT_NE(json.find("\"lat.min\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"lat.max\": 10"), std::string::npos);
    EXPECT_NE(json.find("\"lat.p50\""), std::string::npos);
}

// ------------------------------------------------------ end-to-end

struct TracedRun
{
    serve::TenantFleetStats result;
    std::string trace_csv;
    accel::AccelStats stats;
};

TracedRun
run_list_walk(bool tracing)
{
    core::ClusterConfig config;
    config.trace.enabled = tracing;
    core::Cluster cluster(config);
    ds::LinkedList list(cluster.memory(), cluster.allocator(), 64);
    std::vector<std::uint64_t> values(256);
    for (std::size_t i = 0; i < values.size(); i++) {
        values[i] = i;
    }
    list.build(values, 0);

    serve::TenantLoad load = serve::closed_loop(10, 100, 4);
    load.on_measure_start = [&cluster] { cluster.reset_stats(); };
    TracedRun run;
    run.result = serve::run_closed_loop(
        cluster.queue(), cluster.submitter(core::SystemKind::kPulse),
        [&](std::uint64_t op) {
            return list.make_walk(8 + op % 16, {});
        },
        load);
    run.trace_csv = cluster.tracer().to_csv();
    run.stats = cluster.accelerator(0).stats();
    return run;
}

TEST(TraceEndToEnd, TracingDoesNotPerturbResults)
{
    const TracedRun off = run_list_walk(false);
    const TracedRun on = run_list_walk(true);
    EXPECT_EQ(off.result.completed, on.result.completed);
    EXPECT_EQ(off.result.measure_time, on.result.measure_time);
    EXPECT_EQ(off.result.iterations, on.result.iterations);
    EXPECT_EQ(off.result.latency.count(), on.result.latency.count());
    EXPECT_EQ(off.result.latency.sum(), on.result.latency.sum());
    // Disabled run exported nothing; enabled run recorded spans.
    EXPECT_EQ(off.trace_csv.find("\n0,"), std::string::npos);
    EXPECT_NE(on.trace_csv.find("net_stack_rx"), std::string::npos);
}

TEST(TraceEndToEnd, SeededRunsExportIdenticalTraces)
{
    const TracedRun a = run_list_walk(true);
    const TracedRun b = run_list_walk(true);
    EXPECT_EQ(a.trace_csv, b.trace_csv);
}

TEST(TraceEndToEnd, BreakdownMatchesAccountingExactly)
{
    core::ClusterConfig config;
    config.trace.enabled = true;
    core::Cluster cluster(config);
    ds::LinkedList list(cluster.memory(), cluster.allocator(), 64);
    std::vector<std::uint64_t> values(256);
    for (std::size_t i = 0; i < values.size(); i++) {
        values[i] = i;
    }
    list.build(values, 0);

    serve::TenantLoad load = serve::closed_loop(10, 150, 2);
    load.on_measure_start = [&cluster] { cluster.reset_stats(); };
    serve::run_closed_loop(
        cluster.queue(), cluster.submitter(core::SystemKind::kPulse),
        [&](std::uint64_t op) {
            return list.make_walk(4 + op % 8, {});
        },
        load);

    const trace::Breakdown breakdown =
        trace::aggregate_breakdown(cluster.tracer().events());
    const auto& stats = cluster.accelerator(0).stats();
    // Span durations mirror the busy-time accumulators one-for-one,
    // so the sums agree exactly, not just within a tolerance.
    EXPECT_DOUBLE_EQ(
        breakdown.of(SpanKind::kAccelNetStackRx).total_ps +
            breakdown.of(SpanKind::kAccelNetStackTx).total_ps,
        stats.net_stack_time.sum());
    EXPECT_DOUBLE_EQ(breakdown.of(SpanKind::kAccelScheduler).total_ps,
                     stats.scheduler_time.sum());
    EXPECT_DOUBLE_EQ(
        breakdown.of(SpanKind::kAccelMemPipeline).total_ps,
        stats.mem_pipeline_time.sum());
    EXPECT_DOUBLE_EQ(
        breakdown.of(SpanKind::kAccelLogicPipeline).total_ps,
        stats.logic_pipeline_time.sum());
    EXPECT_DOUBLE_EQ(
        breakdown.of(SpanKind::kAccelWorkspaceWait).total_ps,
        stats.workspace_wait_time.sum());
    EXPECT_EQ(breakdown.dram_loads, stats.loads.value());
    EXPECT_EQ(breakdown.of(SpanKind::kAccelLogicPipeline).count,
              stats.iterations.value());
}

TEST(TraceEndToEnd, ResetStatsClearsTracer)
{
    core::ClusterConfig config;
    config.trace.enabled = true;
    core::Cluster cluster(config);
    ds::LinkedList list(cluster.memory(), cluster.allocator(), 64);
    list.build({1, 2, 3, 4}, 0);
    bool done = false;
    auto op = list.make_walk(3, {});
    op.done = [&done](offload::Completion&&) { done = true; };
    cluster.submitter(core::SystemKind::kPulse)(std::move(op));
    cluster.queue().run();
    ASSERT_TRUE(done);
    EXPECT_GT(cluster.tracer().size(), 0u);
    cluster.reset_stats();
    EXPECT_EQ(cluster.tracer().size(), 0u);
    EXPECT_EQ(cluster.tracer().recorded(), 0u);
}

}  // namespace
}  // namespace pulse
