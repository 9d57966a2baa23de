/**
 * @file
 * pulse_perfbench — the repository benchmark's driver binary.
 *
 *   pulse_perfbench --workload upc|tc|tsv|upc-planes|upc-elastic
 *                   --seed N --seconds S --trace 0|1 [--out-dir DIR]
 *                   [--mutation NAME]
 *
 * One workload per process, simulated on this one thread. A run builds
 * a 4-memory-node pulse cluster, loads the workload's data structure,
 * warms up, then measures a latency phase (1 outstanding op, Fig. 4)
 * and a saturation phase (512 outstanding ops per memory node, Fig. 5).
 * Every completion is checked against a host-side reference.
 * upc-elastic is not one of the benchmark's workloads: it reproduces a
 * defect of elastic placement (README.md, "Known defect").
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
 * twice more, untraced and traced, asserts their simulated results are
 * identical with no dropped spans, and prints the per-layer metrics.
 * The last stdout line is one JSON object (see README.md).
 */
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "isa/interpreter.h"
#include "loop.h"
#include "micro.h"
#include "rig.h"

namespace perfbench {
namespace {

using namespace pulse;

/** Set-ups per untraced run; setup_s is their median. */
constexpr int kSetups = 5;

/** Share of a phase's host-timing chunks, the fastest, that
 *  host_ops_per_s takes the phase's rate from. */
constexpr double kFastChunks = 0.25;

/** Consecutive slices of the saturation window; sim_sat_p99_us is the
 *  median of their p99s. */
constexpr std::size_t kSatSlices = 8;

/** Span ring of the traced run: holds any one chunk with room to spare
 *  (a chunk of 1024 saturated ops records well under 1 M spans). */
constexpr std::size_t kRingCapacity = std::size_t{1} << 21;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir;
    std::string mutation;
};

bool
parse_args(int argc, char** argv, Args* args)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char* value = argv[i + 1];
        char* end = nullptr;
        if (flag == "--workload") {
            args->workload = value;
        } else if (flag == "--seed") {
            args->seed = std::strtoull(value, &end, 10);
        } else if (flag == "--seconds") {
            args->seconds = std::strtod(value, &end);
        } else if (flag == "--trace") {
            args->trace = std::strcmp(value, "1") == 0;
            if (!args->trace && std::strcmp(value, "0") != 0) {
                return false;
            }
        } else if (flag == "--out-dir") {
            args->out_dir = value;
        } else if (flag == "--mutation") {
            args->mutation = value;
        } else {
            return false;
        }
        if (end != nullptr && *end != '\0') {
            return false;
        }
    }
    return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

double
median(std::vector<double> values)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/**
 * Percentile @p q of sorted simulated latencies, in us: the mean of the
 * order statistics within half a percentile of rank q. Simulated
 * latencies are quantized (a hash lookup's latency is a function of its
 * chain position), so a single order statistic often reads the same for
 * every seed; the band mean keeps the figure continuous.
 */
double
percentile_us(const std::vector<Time>& sorted, double q)
{
    const double n = static_cast<double>(sorted.size());
    const auto lo = static_cast<std::size_t>(std::floor((q - 0.005) * n));
    const auto hi = std::min(
        sorted.size(),
        static_cast<std::size_t>(std::ceil((q + 0.005) * n)));
    if (lo >= hi) {
        return 0.0;
    }
    double sum = 0.0;
    for (std::size_t i = lo; i < hi; i++) {
        sum += static_cast<double>(sorted[i]);
    }
    return to_micros(static_cast<Time>(sum / static_cast<double>(hi - lo)));
}

/**
 * sim_sat_p99_us from the saturation window's latencies in completion
 * order: the median over kSatSlices consecutive slices of each slice's
 * p99. Nothing in the closed loop evens out the memory nodes' backlogs,
 * so they drift apart like a random walk and the tail keeps growing
 * through the window (on upc the first slice's p99 is about 600 us, the
 * last one's 700-820 us depending on the seed). One p99 over the whole
 * window is set by its last stretch; the median slice's is the tail of
 * a typical stretch.
 */
double
sliced_p99_us(const std::vector<Time>& samples)
{
    std::vector<double> p99s;
    for (std::size_t k = 0; k < kSatSlices; k++) {
        std::vector<Time> slice(
            samples.begin() + k * samples.size() / kSatSlices,
            samples.begin() + (k + 1) * samples.size() / kSatSlices);
        std::sort(slice.begin(), slice.end());
        p99s.push_back(percentile_us(slice, 0.99));
    }
    return median(p99s);
}

double
mean_us(const std::vector<Time>& samples)
{
    double sum = 0.0;
    for (const Time t : samples) {
        sum += static_cast<double>(t);
    }
    return samples.empty()
               ? 0.0
               : to_micros(static_cast<Time>(
                     sum / static_cast<double>(samples.size())));
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** A built, warmed-up workload and the loop driving it. */
struct Session
{
    std::unique_ptr<Rig> rig;
    std::unique_ptr<Loop> loop;
    double setup_s = 0.0;     ///< thread CPU: build + load + warmup
    std::uint64_t failed = 0; ///< warmup completions that failed checks
};

/** Drain @p loop and check what was left in flight; returns the
 *  failures, counting every issued op that never completed. */
std::uint64_t
drain_and_check(Loop& loop)
{
    loop.drain();
    loop.fold_trace(nullptr);
    return loop.verify_pending() + (loop.issued() - loop.done());
}

Session
set_up(const WorkloadSpec& spec, std::uint64_t seed, bool trace,
       SpanLog& spans)
{
    Session session;
    const double start = thread_cpu_s();
    session.rig = std::make_unique<Rig>(spec, seed, trace, kRingCapacity,
                                        spans);
    session.loop = std::make_unique<Loop>(*session.rig, spans);
    const std::uint32_t span = spans.begin(HostLayer::kWarmup);
    Loop& loop = *session.loop;
    loop.start(kSatPerNode * kMemNodes, spec.warmup_ops);
    double verify_s = 0.0;
    while (loop.done() < spec.warmup_ops && !loop.stalled()) {
        loop.advance(std::min(loop.done() + spec.sat_chunk,
                              spec.warmup_ops));
        // Outside set-up time: the benchmark's own checking and the
        // traced run's span folding (warmup spans are discarded).
        const double t0 = thread_cpu_s();
        loop.fold_trace(nullptr);
        session.failed += loop.verify_pending();
        verify_s += thread_cpu_s() - t0;
    }
    spans.end(span);
    session.setup_s = thread_cpu_s() - start - verify_s;
    return session;
}

/** Everything one measured session produces. */
struct RunResult
{
    std::vector<Time> lat;  ///< latency-phase latencies
    std::vector<Time> sat;  ///< saturation-window latencies
    double sat_p99_us = 0.0;  ///< sliced_p99_us of sat, in completion order
    Counters lat_begin, lat_end, win_begin, win_end, finish;
    SimFold lat_fold, win_fold;
    std::uint64_t digest = 0;
    std::vector<double> lat_chunks;  ///< thread-CPU s per chunk
    std::vector<double> sat_chunks;  ///< ramp, window, then host-time extension
    double fixed_cpu_s = 0.0;  ///< latency + ramp + window chunks
    std::int64_t measure_from_ns = 0;
    std::size_t peak_pending = 0;
    std::uint64_t attempted = 0;  ///< ops issued, warmup included
    std::uint64_t failed = 0;
    bool stalled = false;  ///< the event queue emptied before a target
    std::uint64_t stale_updates = 0;  ///< updated keys not holding V(key)
    std::uint64_t trace_dropped = 0;
    double build_s = 0.0;
    double load_s = 0.0;
    double peak_rss_mib = 0.0;  ///< when the saturation window closed
};

double
peak_rss_mib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/**
 * Measure the latency and saturation phases on a warmed-up session.
 * With @p extend_s > 0 the saturation phase keeps running (past its
 * fixed window, which alone defines the simulated metrics) until that
 * many wall seconds have passed since the latency phase began.
 */
RunResult
measure(Session& session, SpanLog& spans, double extend_s)
{
    Rig& rig = *session.rig;
    Loop& loop = *session.loop;
    const WorkloadSpec& spec = rig.spec();
    core::Cluster& cluster = rig.cluster();
    RunResult r;
    r.build_s = rig.build_s();
    r.load_s = rig.load_s();
    r.failed = session.failed;
    r.measure_from_ns = spans.now_ns();
    const auto wall_start = std::chrono::steady_clock::now();
    loop.set_digest(true);

    // Latency phase: one outstanding op (Fig. 4).
    r.lat_begin = Counters::take(cluster, loop.done());
    loop.collect(&r.lat);
    loop.start(1, spec.latency_ops);
    const std::uint64_t lat_base = loop.done();
    for (std::uint64_t n = spec.latency_chunk;
         n <= spec.latency_ops && !loop.stalled();
         n += spec.latency_chunk) {
        r.lat_chunks.push_back(loop.advance(lat_base + n));
        loop.fold_trace(&r.lat_fold);
        r.failed += loop.verify_pending();
    }
    r.lat_end = Counters::take(cluster, loop.done());
    loop.collect(nullptr);

    // Saturation phase: 512 outstanding ops per memory node (Fig. 5).
    // The window opens after ramp_ops completions and closes
    // window_ops later; issuing never pauses inside it.
    loop.start(kSatPerNode * kMemNodes, Loop::kUnbounded);
    const std::uint64_t sat_base = loop.done();
    const std::uint64_t window_open = sat_base + spec.ramp_ops;
    const std::uint64_t window_close = window_open + spec.window_ops;
    for (std::uint64_t target = sat_base + spec.sat_chunk;
         target <= window_close && !loop.stalled();
         target += spec.sat_chunk) {
        if (target - spec.sat_chunk == window_open) {
            r.win_begin = Counters::take(cluster, loop.done());
            loop.collect(&r.sat);
        }
        r.sat_chunks.push_back(loop.advance(target));
        loop.fold_trace(target > window_open ? &r.win_fold : nullptr);
        r.failed += loop.verify_pending();
    }
    r.win_end = Counters::take(cluster, loop.done());
    r.sat_p99_us = sliced_p99_us(r.sat);
    // Before the host-time extension, whose length (and with it the
    // number of pending retransmit timers) depends on host speed.
    r.peak_rss_mib = peak_rss_mib();
    loop.collect(nullptr);
    loop.set_digest(false);
    r.digest = loop.digest();
    for (const double s : r.lat_chunks) {
        r.fixed_cpu_s += s;
    }
    for (const double s : r.sat_chunks) {
        r.fixed_cpu_s += s;
    }

    // Host-time extension: more saturated chunks, for host_ops_per_s.
    const auto wall_s = [&wall_start] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - wall_start)
            .count();
    };
    while (extend_s > 0 && wall_s() < extend_s && !loop.stalled()) {
        r.sat_chunks.push_back(
            loop.advance(loop.done() + spec.sat_chunk));
        loop.fold_trace(nullptr);
        r.failed += loop.verify_pending();
    }
    r.stalled = loop.stalled();

    r.failed += drain_and_check(loop);
    r.stale_updates = rig.verify_updates();
    r.failed += r.stale_updates;
    r.finish = Counters::take(cluster, loop.done());
    r.attempted = loop.issued();
    r.peak_pending = cluster.queue().peak_pending();
    r.trace_dropped = loop.trace_dropped();
    return r;
}

/** Thread-CPU seconds per op of one phase: the mean over the fastest
 *  kFastChunks share of its chunks, each of @p ops completions. */
double
fast_s_per_op(std::vector<double> chunks, std::uint32_t ops)
{
    std::sort(chunks.begin(), chunks.end());
    const std::size_t n = std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(chunks.size()) *
                                    kFastChunks));
    double sum = 0.0;
    for (std::size_t i = 0; i < n && i < chunks.size(); i++) {
        sum += chunks[i];
    }
    return ratio(sum, static_cast<double>(n * ops));
}

/**
 * Completions per thread-CPU second over the latency and saturation
 * phases, each phase's ops costed at its fastest chunks' rate. Other
 * tenants of a shared host slow stretches of a run by 10-40% and never
 * speed one up, so the fastest chunks are the ones they left alone.
 */
double
host_ops_per_s(const RunResult& r, const WorkloadSpec& spec)
{
    const double lat_ops =
        static_cast<double>(r.lat_chunks.size() * spec.latency_chunk);
    const double sat_ops =
        static_cast<double>(r.sat_chunks.size() * spec.sat_chunk);
    return ratio(lat_ops + sat_ops,
                 lat_ops * fast_s_per_op(r.lat_chunks, spec.latency_chunk) +
                     sat_ops * fast_s_per_op(r.sat_chunks, spec.sat_chunk));
}

double
sim_kops(const RunResult& r)
{
    return ratio(static_cast<double>(r.win_end.completed -
                                     r.win_begin.completed),
                 to_seconds(r.win_end.now - r.win_begin.now)) /
           1e3;
}


/** One reported metric. */
struct Metric
{
    std::string name;
    double value;
    const char* unit;
};

void
print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
             const std::vector<Metric>& metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); i++) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    }
    std::printf("}}\n");
}

/** The simulated metrics, which repeat exactly for a seed. */
std::vector<Metric>
sim_metrics(const RunResult& r)
{
    return {{"sim_p50_us", percentile_us(r.lat, 0.50), "us"},
            {"sim_p99_us", percentile_us(r.lat, 0.99), "us"},
            {"sim_kops", sim_kops(r), "kops/s"},
            {"sim_sat_p99_us", r.sat_p99_us, "us"}};
}

void
sort_samples(RunResult& r)
{
    std::sort(r.lat.begin(), r.lat.end());
    std::sort(r.sat.begin(), r.sat.end());
}

int
run_untraced(const WorkloadSpec& spec, const Args& args)
{
    SpanLog spans(false);
    RunResult r;
    std::vector<double> setups;
    {
        Session session = set_up(spec, args.seed, false, spans);
        r = measure(session, spans, args.seconds);
        setups.push_back(session.setup_s);
    }
    // Further identical set-ups: setup_s is their median.
    std::uint64_t attempted = r.attempted;
    std::uint64_t failed = r.failed;
    bool stalled = r.stalled;
    for (int i = 1; i < kSetups; i++) {
        Session session = set_up(spec, args.seed, false, spans);
        setups.push_back(session.setup_s);
        stalled = stalled || session.loop->stalled();
        failed += session.failed + drain_and_check(*session.loop);
        attempted += session.loop->issued();
    }
    sort_samples(r);

    const double error_rate =
        ratio(static_cast<double>(failed), static_cast<double>(attempted));
    std::vector<Metric> metrics = {
        {"host_ops_per_s", host_ops_per_s(r, spec), "ops/s"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mib", r.peak_rss_mib, "MiB"},
    };
    for (const Metric& m : sim_metrics(r)) {
        metrics.push_back(m);
    }
    metrics.push_back({"success_rate", 1.0 - error_rate, "fraction"});

    const std::size_t slice = r.sat.size() / kSatSlices;
    std::printf("workload %s seed %llu: %zu latency samples (p99 has %zu "
                "beyond), %zu saturation-window samples in %zu slices "
                "(each slice's p99 has %zu beyond)\n",
                spec.name, static_cast<unsigned long long>(args.seed),
                r.lat.size(), r.lat.size() - r.lat.size() * 99 / 100,
                r.sat.size(), kSatSlices, slice - slice * 99 / 100);
    std::printf("host chunks: %zu latency x %u ops, %zu saturation x %u "
                "ops; fixed phases %.3f CPU s\n",
                r.lat_chunks.size(), spec.latency_chunk,
                r.sat_chunks.size(), spec.sat_chunk, r.fixed_cpu_s);
    std::printf("completion digest %016llx; attempted %llu, failed %llu "
                "(error_rate %.6g, stale updates %llu)%s\n",
                static_cast<unsigned long long>(r.digest),
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), error_rate,
                static_cast<unsigned long long>(r.stale_updates),
                stalled ? "; STALLED: the event queue emptied" : "");
    for (const Metric& m : metrics) {
        std::printf("  %-16s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
    }
    print_result(failed == 0 && !stalled, attempted, failed, metrics);
    return 0;
}

/** Each per-layer metric, the end-to-end metric it should move, and the
 *  workloads it is mostly on / little on. README.md defines them. */
struct LayerInfo
{
    const char* name;
    const char* unit;
    const char* moves;
    const char* on;
};

const LayerInfo kLayers[] = {
    {"sim.events_per_op", "count", "host_ops_per_s", "upc / tsv"},
    {"sim.peak_pending", "count", "host_ops_per_s", "upc / tsv"},
    {"sim.host_ns_per_event", "ns", "host_ops_per_s", "upc / tsv"},
    {"sim.queue_ns_per_event", "ns", "host_ops_per_s", "upc / tsv"},
    {"isa.instrs_per_op", "count", "host_ops_per_s", "tsv / upc"},
    {"isa.host_ns_per_instr", "ns", "host_ops_per_s", "tsv / upc"},
    {"sim.drain_self_ns_per_op", "ns", "host_ops_per_s", "tc / tsv"},
    {"offload.submit_ns_per_op", "ns", "host_ops_per_s", "tc / tsv"},
    {"workloads.gen_ns_per_op", "ns", "host_ops_per_s", "tc / tsv"},
    {"core.build_s", "s", "setup_s,peak_rss_mib", "all"},
    {"ds.load_s", "s", "setup_s,peak_rss_mib", "all"},
    {"offload.visits_per_op", "count", "sim_p50_us,sim_p99_us",
     "tc,tsv / upc"},
    {"offload.continuations_per_op", "count", "sim_p50_us,sim_p99_us",
     "tc,tsv / upc"},
    {"net.switch_us_per_op", "us", "sim_p50_us,sim_p99_us",
     "tc,tsv / upc"},
    {"net.nic_us_per_op", "us", "sim_p50_us,sim_p99_us", "tc,tsv / upc"},
    {"net.client_bytes_per_op", "B", "sim_p50_us,sim_p99_us",
     "tc,tsv / upc"},
    {"accel.wait_us_per_op", "us", "sim_sat_p99_us,sim_kops",
     "tsv / upc"},
    {"accel.logic_util", "fraction", "sim_sat_p99_us,sim_kops",
     "tsv / upc"},
    {"accel.logic_ns_per_iter", "ns", "sim_sat_p99_us,sim_kops",
     "tsv / upc"},
    {"mem.bw_util", "fraction", "sim_kops", "upc / tc"},
    {"mem.bytes_per_op", "B", "sim_kops", "upc / tc"},
    {"accel.mem_ns_per_load", "ns", "sim_kops", "upc / tc"},
    {"client.sw_us_per_op", "us", "sim_p50_us", "upc / tc"},
    {"accel.net_stack_ns_per_pkt", "ns", "sim_p50_us", "upc / tc"},
    {"accel.sched_ns", "ns", "sim_p50_us", "upc / tc"},
    {"placement.migrations", "count",
     "sim_kops,sim_sat_p99_us,host_ops_per_s",
     "upc-elastic (repro only) / rest (0)"},
    {"placement.copy_bytes_per_op", "B",
     "sim_kops,sim_sat_p99_us,host_ops_per_s",
     "upc-elastic (repro only) / rest (0)"},
    {"placement.forwards_per_op", "count",
     "sim_kops,sim_sat_p99_us,host_ops_per_s",
     "upc-elastic (repro only) / rest (0)"},
    {"replication.mirrors_per_op", "count",
     "sim_kops,sim_sat_p99_us,host_ops_per_s", "upc-planes / rest (0)"},
    {"replication.copy_bytes_per_op", "B",
     "sim_kops,sim_sat_p99_us,host_ops_per_s", "upc-planes / rest (0)"},
    {"core.node_imbalance", "ratio",
     "sim_kops,sim_sat_p99_us,host_ops_per_s", "upc-planes / rest (1)"},
    {"offload.retransmits_per_op", "count", "success_rate,sim_p99_us",
     "all (expect 0)"},
    {"offload.fallback_frac", "fraction", "success_rate,sim_p99_us",
     "all (expect 0)"},
    {"accel.drops", "count", "success_rate,sim_p99_us", "all (expect 0)"},
    {"lat.residual_frac", "fraction", "(accounting check)", "all"},
    {"trace.overhead_frac", "fraction", "(accounting check)", "all"},
    {"bench.verify_ns_per_op", "ns", "(accounting check)", "all"},
};

double
kind_ps(const SimFold& fold, trace::SpanKind kind)
{
    return fold.breakdown.of(kind).total_ps;
}

/** Per-layer metrics of the untraced (@p u) and traced (@p t) runs. */
std::map<std::string, double>
layer_metrics(const RunResult& u, const RunResult& t,
              const SpanLog& spans, double queue_ns, double isa_ns,
              double bw_capacity)
{
    using trace::SpanKind;
    std::map<std::string, double> m;
    const double n_lat = static_cast<double>(u.lat.size());
    const double n_win = static_cast<double>(u.sat.size());
    const double n_run = static_cast<double>(u.attempted);
    const double measured_ops =
        static_cast<double>(u.win_end.completed - u.lat_begin.completed);
    const double measured_events =
        static_cast<double>(u.win_end.events - u.lat_begin.events);
    const SimFold& lat = t.lat_fold;

    m["sim.events_per_op"] = ratio(measured_events, measured_ops);
    m["sim.peak_pending"] = static_cast<double>(u.peak_pending);
    m["sim.host_ns_per_event"] =
        ratio(u.fixed_cpu_s * 1e9, measured_events);
    m["sim.queue_ns_per_event"] = queue_ns;
    m["isa.instrs_per_op"] =
        ratio(static_cast<double>(lat.instructions), n_lat);
    m["isa.host_ns_per_instr"] = isa_ns;

    const SpanLog::Totals host = spans.totals(u.measure_from_ns);
    const auto layer = [&host](HostLayer l) {
        return static_cast<std::size_t>(l);
    };
    m["sim.drain_self_ns_per_op"] =
        ratio(host.self_ns[layer(HostLayer::kDrain)], measured_ops);
    m["offload.submit_ns_per_op"] =
        ratio(host.total_ns[layer(HostLayer::kSubmit)], measured_ops);
    m["workloads.gen_ns_per_op"] =
        ratio(host.total_ns[layer(HostLayer::kGen)], measured_ops);
    m["bench.verify_ns_per_op"] =
        ratio(host.total_ns[layer(HostLayer::kParse)] +
                  host.total_ns[layer(HostLayer::kVerify)],
              static_cast<double>(u.finish.completed -
                                  u.lat_begin.completed));
    m["core.build_s"] = u.build_s;
    m["ds.load_s"] = u.load_s;

    const Counters& lb = u.lat_begin;
    const Counters& le = u.lat_end;
    m["offload.visits_per_op"] =
        ratio(static_cast<double>(le.requests - lb.requests), n_lat);
    m["offload.continuations_per_op"] = ratio(
        static_cast<double>(le.forwards - lb.forwards +
                            le.continuations - lb.continuations),
        n_lat);
    m["net.switch_us_per_op"] =
        ratio(kind_ps(lat, SpanKind::kSwitchRoute), n_lat) / 1e6;
    m["net.nic_us_per_op"] =
        ratio(kind_ps(lat, SpanKind::kNicUplink) +
                  kind_ps(lat, SpanKind::kNicDownlink),
              n_lat) /
        1e6;
    m["net.client_bytes_per_op"] = ratio(
        static_cast<double>(le.client_bytes - lb.client_bytes), n_lat);
    m["client.sw_us_per_op"] =
        ratio(kind_ps(lat, SpanKind::kClientSubmit) +
                  kind_ps(lat, SpanKind::kClientResponse),
              n_lat) /
        1e6;
    m["accel.net_stack_ns_per_pkt"] = lat.breakdown.net_stack_ns_per_pkt();
    m["accel.sched_ns"] = lat.breakdown.scheduler_ns();
    m["accel.mem_ns_per_load"] = lat.breakdown.mem_pipeline_ns_per_load();
    m["accel.logic_ns_per_iter"] = lat.breakdown.logic_ns_per_iter();

    const Counters& wb = u.win_begin;
    const Counters& we = u.win_end;
    const double window_ps = static_cast<double>(we.now - wb.now);
    m["accel.wait_us_per_op"] = ratio(we.wait_ps - wb.wait_ps, n_win) / 1e6;
    m["accel.logic_util"] = ratio(
        we.logic_busy_ps - wb.logic_busy_ps,
        window_ps * kMemNodes *
            static_cast<double>(
                core::ClusterConfig().accel.num_cores *
                core::ClusterConfig().accel.eta_pipelines));
    const double window_bytes =
        static_cast<double>(we.mem_bytes - wb.mem_bytes);
    m["mem.bytes_per_op"] = ratio(window_bytes, n_win);
    m["mem.bw_util"] =
        ratio(window_bytes / (window_ps * 1e-12), bw_capacity);

    const Counters& f = u.finish;
    m["placement.migrations"] = static_cast<double>(f.migrations);
    m["placement.copy_bytes_per_op"] =
        ratio(static_cast<double>(f.migration_bytes), n_run);
    m["placement.forwards_per_op"] =
        ratio(static_cast<double>(f.plane_forwards), n_run);
    m["replication.mirrors_per_op"] =
        ratio(static_cast<double>(f.mirrors), n_run);
    m["replication.copy_bytes_per_op"] =
        ratio(static_cast<double>(f.replica_bytes), n_run);
    std::uint64_t max_node = 0;
    std::uint64_t sum_node = 0;
    for (std::size_t i = 0; i < we.node_requests.size(); i++) {
        const std::uint64_t n = we.node_requests[i] - wb.node_requests[i];
        max_node = std::max(max_node, n);
        sum_node += n;
    }
    m["core.node_imbalance"] =
        ratio(static_cast<double>(max_node) * kMemNodes,
              static_cast<double>(sum_node));
    m["offload.retransmits_per_op"] =
        ratio(static_cast<double>(f.retransmits), n_run);
    m["offload.fallback_frac"] = ratio(static_cast<double>(f.fallback),
                                       static_cast<double>(f.submitted));
    m["accel.drops"] = static_cast<double>(f.drops);

    // Accounting: the request path's simulated spans against the
    // measured mean latency of the same (latency-phase) ops.
    double path_ps = 0.0;
    for (const SpanKind kind :
         {SpanKind::kClientSubmit, SpanKind::kClientResponse,
          SpanKind::kNicUplink, SpanKind::kSwitchRoute,
          SpanKind::kNicDownlink, SpanKind::kAccelNetStackRx,
          SpanKind::kAccelScheduler, SpanKind::kAccelWorkspaceWait,
          SpanKind::kAccelMemPipeline, SpanKind::kAccelLogicPipeline,
          SpanKind::kAccelNetStackTx}) {
        path_ps += kind_ps(lat, kind);
    }
    m["lat.residual_frac"] =
        1.0 - ratio(path_ps / n_lat / 1e6, mean_us(u.lat));
    m["trace.overhead_frac"] = ratio(t.fixed_cpu_s, u.fixed_cpu_s) - 1.0;
    return m;
}

bool
write_layers_json(const std::string& path, const RunResult& t,
                  const std::map<std::string, double>& metrics)
{
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        return false;
    }
    std::fprintf(out, "{\n  \"metrics\": {");
    bool first = true;
    for (const auto& [name, value] : metrics) {
        std::fprintf(out, "%s\n    \"%s\": %.17g", first ? "" : ",",
                     name.c_str(), value);
        first = false;
    }
    std::fprintf(out, "\n  }");
    for (const auto& [phase, fold] :
         {std::pair<const char*, const SimFold*>{"latency", &t.lat_fold},
          {"saturation_window", &t.win_fold}}) {
        std::fprintf(out, ",\n  \"%s_spans\": {", phase);
        for (std::size_t k = 0; k < trace::kNumSpanKinds; k++) {
            const trace::SpanAggregate& agg = fold->breakdown.per_kind[k];
            std::fprintf(out,
                         "%s\n    \"%s\": {\"count\": %llu, "
                         "\"total_ps\": %.17g}",
                         k ? "," : "",
                         trace::span_name(static_cast<trace::SpanKind>(k)),
                         static_cast<unsigned long long>(agg.count),
                         agg.total_ps);
        }
        std::fprintf(out, "\n  }");
    }
    std::fprintf(out, "\n}\n");
    return std::fclose(out) == 0;
}

bool
same_sim(const RunResult& a, const RunResult& b)
{
    return a.lat == b.lat && a.sat == b.sat && a.digest == b.digest &&
           a.win_begin.now == b.win_begin.now &&
           a.win_end.now == b.win_end.now &&
           a.finish.events == b.finish.events;
}

int
run_traced(const WorkloadSpec& spec, const Args& args)
{
    // Untraced reference run (host spans on), then the traced run.
    SpanLog spans(true);
    RunResult u;
    double queue_ns = 0.0;
    double isa_ns = 0.0;
    double bw_capacity = 0.0;
    {
        Session session = set_up(spec, args.seed, false, spans);
        u = measure(session, spans, 0.0);
        bw_capacity =
            session.rig->cluster().memory_bandwidth_capacity();
        // One firing event per outstanding op of the saturation phase.
        queue_ns = queue_ns_per_event(u.peak_pending,
                                      kSatPerNode * kMemNodes, args.seed,
                                      spans);
        isa_ns = isa_ns_per_instr(*session.rig, spans);
    }
    SpanLog traced_spans(true);
    RunResult t;
    {
        Session session = set_up(spec, args.seed, true, traced_spans);
        t = measure(session, traced_spans, 0.0);
    }
    sort_samples(u);
    sort_samples(t);

    const std::map<std::string, double> m =
        layer_metrics(u, t, spans, queue_ns, isa_ns, bw_capacity);

    const bool identical = same_sim(u, t);
    const bool complete =
        t.trace_dropped == 0 && !u.stalled && !t.stalled;
    const std::uint64_t attempted = u.attempted + t.attempted;
    const std::uint64_t failed = u.failed + t.failed;

    std::printf("workload %s seed %llu traced run: sim_* %s the untraced "
                "run's, %llu spans folded, %llu dropped%s\n",
                spec.name, static_cast<unsigned long long>(args.seed),
                identical ? "identical to" : "DIFFER from",
                static_cast<unsigned long long>(t.lat_fold.spans +
                                                t.win_fold.spans),
                static_cast<unsigned long long>(t.trace_dropped),
                u.stalled || t.stalled ? "; STALLED: the event queue emptied"
                                       : "");
    for (const Metric& m_u : sim_metrics(u)) {
        std::printf("  %-16s %14.6g %s\n", m_u.name.c_str(), m_u.value,
                    m_u.unit);
    }
    std::printf("\n%-30s %14s %-8s %-40s %s\n", "per-layer metric",
                "value", "unit", "should move", "mostly on / little on");
    std::vector<Metric> metrics;
    for (const LayerInfo& info : kLayers) {
        const double value = m.at(info.name);
        std::printf("%-30s %14.6g %-8s %-40s %s\n", info.name, value,
                    info.unit, info.moves, info.on);
        metrics.push_back({info.name, value, info.unit});
    }

    // Fig. 9 calibration: the accelerator's hash-table find path
    // against the paper's measured values. Only upc and upc-elastic run
    // that program alone; the rest of the model is unvalidated.
    const bool find_only = spec.kind == WorkloadKind::kUpc ||
                           spec.kind == WorkloadKind::kUpcElastic;
    std::printf("\nFig. 9 calibration (paper values are for the "
                "hash-table find%s):\n",
                find_only ? "" : "; this workload runs other programs");
    const struct
    {
        const char* name;
        double paper;
    } calib[] = {{"accel.net_stack_ns_per_pkt", 430.0},
                 {"accel.sched_ns", 4.0},
                 {"accel.mem_ns_per_load", 120.0},
                 {"accel.logic_ns_per_iter", 7.0}};
    for (const auto& c : calib) {
        const double value = m.at(c.name);
        std::printf("  %-28s %10.2f ns  paper %7.1f ns  error %+.1f%%\n",
                    c.name, value, c.paper,
                    (value - c.paper) / c.paper * 100.0);
    }

    if (!args.out_dir.empty()) {
        const std::string base = args.out_dir + "/" + spec.name;
        if (!spans.write_csv(base + ".spans.csv") ||
            !write_layers_json(base + ".layers.json", t, m)) {
            std::fprintf(stderr, "cannot write to %s\n",
                         args.out_dir.c_str());
            return 1;
        }
        std::printf("\nhost spans: %s.spans.csv; simulated-span "
                    "aggregates: %s.layers.json\n",
                    base.c_str(), base.c_str());
    }
    print_result(failed == 0 && identical && complete, attempted, failed,
                 metrics);
    return 0;
}

}  // namespace
}  // namespace perfbench

int
main(int argc, char** argv)
{
    using namespace perfbench;
    Args args;
    if (!parse_args(argc, argv, &args)) {
        std::fprintf(stderr,
                     "usage: %s --workload %s --seed N --seconds S "
                     "--trace 0|1 [--out-dir DIR] [--mutation NAME]\n",
                     argv[0], spec_names().c_str());
        return 2;
    }
    const WorkloadSpec* spec = find_spec(args.workload);
    if (spec == nullptr) {
        std::fprintf(stderr, "unknown workload '%s' (want %s)\n",
                     args.workload.c_str(), spec_names().c_str());
        return 2;
    }
    if (!args.mutation.empty()) {
        // Positive control: a deliberately wrong interpreter.
        pulse::isa::InterpreterMutation mutation;
        if (!pulse::isa::mutation_from_name(args.mutation.c_str(),
                                            &mutation)) {
            std::fprintf(stderr, "unknown mutation '%s'\n",
                         args.mutation.c_str());
            return 2;
        }
        pulse::isa::set_interpreter_mutation(mutation);
    }
    return args.trace ? run_traced(*spec, args) : run_untraced(*spec, args);
}
