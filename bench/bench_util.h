/**
 * @file
 * Shared harness for the paper-reproduction benchmarks.
 *
 * Every bench binary (one per paper table/figure) builds RunSpecs —
 * (application, system, node count, concurrency) cells — executes them
 * through the cluster + workload driver, and prints the corresponding
 * paper-style table. Results also surface as google-benchmark counters
 * so standard tooling can consume them.
 */
#ifndef PULSE_BENCH_BENCH_UTIL_H
#define PULSE_BENCH_BENCH_UTIL_H

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "apps/apps.h"
#include "common/knobs.h"
#include "common/logging.h"
#include "core/cluster.h"
#include "energy/energy_model.h"
#include "isa/analysis.h"
#include "serve/fleet.h"
#include "trace/metrics_exporter.h"

namespace pulse::bench {

/**
 * Harness-level knobs shared by every bench binary, set by
 * parse_bench_args() from PULSE_BENCH_THREADS / PULSE_BENCH_OPS_SCALE
 * and the --threads=N / --ops-scale=X flags that override them.
 */
struct BenchOptions
{
    /** Sweep worker threads; 1 reproduces the serial behavior. */
    unsigned threads = std::max(1u, std::thread::hardware_concurrency());

    /**
     * Multiplier applied to every RunSpec's warmup_ops/measure_ops
     * (floored at 1 op). 1.0 — the default — bypasses scaling
     * entirely, keeping full runs bit-identical; CI uses small values
     * for cheap sweeps.
     */
    double ops_scale = 1.0;
};

/** Mutable process-wide options. */
inline BenchOptions&
bench_options()
{
    static BenchOptions options;
    return options;
}

/**
 * Apply the harness knobs to @p options: the environment first, then
 * the --threads=N / --ops-scale=X flags, which are stripped from
 * @p argv because benchmark::Initialize aborts on flags it does not
 * recognize. Every other knob in the table is validated too. Returns
 * false with @p error set on a malformed flag or knob value.
 */
inline bool
parse_bench_flags(int& argc, char** argv, BenchOptions& options,
                  std::string* error)
{
    using knobs::Knob;
    if (!knobs::validate_env(error)) {
        return false;
    }
    const std::pair<Knob, std::string_view> flags[] = {
        {Knob::kBenchThreads, "--threads="},
        {Knob::kBenchOpsScale, "--ops-scale="}};
    for (const auto& [knob, prefix] : flags) {
        knobs::Value value;
        knobs::read(knob, &value, error);
        int kept = 1;
        for (int i = 1; i < argc; i++) {
            const std::string_view arg(argv[i]);
            if (arg.substr(0, prefix.size()) != prefix) {
                argv[kept++] = argv[i];
            } else if (!knobs::parse(knob, arg.substr(prefix.size()),
                                     &value, error)) {
                *error = std::string(arg) + ": " + *error;
                return false;
            }
        }
        argc = kept;
        argv[argc] = nullptr;
        if (value.number > 0.0 && knob == Knob::kBenchThreads) {
            options.threads = static_cast<unsigned>(value.number);
        } else if (value.number > 0.0) {
            options.ops_scale = value.number;
        }
    }
    return true;
}

/**
 * parse_bench_flags() into bench_options(); a malformed flag or knob
 * prints its error and exits with status 2. Call first in every bench
 * main().
 */
inline void
parse_bench_args(int& argc, char** argv)
{
    std::string error;
    if (!parse_bench_flags(argc, argv, bench_options(), &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        std::exit(2);
    }
}

/** The evaluated applications (Table 2 rows). */
enum class App { kUpc, kTc, kTsv75, kTsv15, kTsv30, kTsv60 };

inline const char*
app_name(App app)
{
    switch (app) {
      case App::kUpc: return "UPC";
      case App::kTc: return "TC";
      case App::kTsv75: return "TSV-7.5s";
      case App::kTsv15: return "TSV-15s";
      case App::kTsv30: return "TSV-30s";
      case App::kTsv60: return "TSV-60s";
    }
    return "?";
}

inline double
tsv_window_seconds(App app)
{
    switch (app) {
      case App::kTsv75: return 7.5;
      case App::kTsv15: return 15.0;
      case App::kTsv30: return 30.0;
      case App::kTsv60: return 60.0;
      default: return 0.0;
    }
}

/** One experiment cell. */
struct RunSpec
{
    App app = App::kUpc;
    core::SystemKind system = core::SystemKind::kPulse;
    std::uint32_t nodes = 1;
    std::uint32_t concurrency = 1;
    std::uint64_t warmup_ops = 100;
    std::uint64_t measure_ops = 600;
    bool pulse_acc = false;      ///< pulse-ACC ablation (Fig. 8)
    bool uniform_alloc = false;  ///< supp. Fig. 2 allocation policy
    apps::AppScale scale;

    /** Extra cluster tweaks applied before construction. */
    std::function<void(core::ClusterConfig&)> tweak;
};

/** Everything measured for one cell. */
struct RunOutcome
{
    serve::TenantFleetStats stats;  ///< the closed-loop tenant
    double mem_bw = 0.0;          ///< achieved memory bandwidth (B/s)
    double mem_bw_capacity = 0.0; ///< effective capacity (B/s)
    double net_bw = 0.0;          ///< client port traffic (B/s)
    double net_bw_capacity = 0.0; ///< client link capacity (B/s)
    double joules_per_op = 0.0;   ///< energy model output
    double avg_iterations = 0.0;
    double mean_us = 0.0;
    double p99_us = 0.0;
    double kops = 0.0;            ///< throughput, K ops/s
    /** Per-node load skew over the measure window (max/mean of the
     *  accelerators' request counts; 1.0 = balanced). Not part of the
     *  default metrics export to keep fig4/5/9 outputs stable —
     *  benches that care (fig8, ablation_migration) report it. */
    double node_imbalance = 1.0;
};

/**
 * Spec for the main-figure experiments (Figs. 4-7): UPC is key-
 * partitioned (Table 2: partitionable), TC/TSV use the default
 * glibc-like uniform allocation (Table 2 marks B+Trees as not
 * partitionable; section 2.2: the paper does not innovate on
 * allocation).
 */
inline RunSpec
main_spec(App app, core::SystemKind system, std::uint32_t nodes)
{
    RunSpec spec;
    spec.app = app;
    spec.system = system;
    spec.nodes = nodes;
    spec.uniform_alloc = app != App::kUpc;
    return spec;
}

inline Bytes
app_data_bytes(const RunSpec& spec)
{
    switch (spec.app) {
      case App::kUpc: return apps::upc_data_bytes(spec.scale);
      case App::kTc: return apps::tc_data_bytes(spec.scale);
      default: return apps::tsv_data_bytes(spec.scale);
    }
}

/** Build the cluster config for a cell. */
inline core::ClusterConfig
make_config(const RunSpec& spec)
{
    core::ClusterConfig config;
    config.num_mem_nodes = spec.nodes;
    config.alloc_policy = spec.uniform_alloc
                              ? mem::AllocPolicy::kUniform
                              : mem::AllocPolicy::kPartitioned;
    // Enough in-flight loads per core to cover the 120 ns access
    // latency at full channel bandwidth (DESIGN.md deviation note).
    config.accel.workspaces_per_logic = 16;
    // Scale the client caches with the data set (paper: 2 GB/~120 GB).
    const Bytes cache_bytes = std::max<Bytes>(
        static_cast<Bytes>(static_cast<double>(app_data_bytes(spec)) *
                           spec.scale.cache_fraction),
        256 * kKiB);
    config.cache.cache_bytes = cache_bytes;
    config.aifm.cache_bytes = cache_bytes;
    config.set_pulse_acc(spec.pulse_acc);
    // The plane knobs turn a plane on for any bench run; unset, empty
    // or off constructs nothing and leaves the outputs bit-identical
    // (DESIGN.md §11). parse_bench_args() has rejected bad values.
    std::string error;
    if (!config.apply_env_knobs(&error)) {
        panic("%s", error.c_str());
    }
    if (spec.tweak) {
        spec.tweak(config);
    }
    return config;
}

/** Hold the cluster + app together (app owns remote structures). */
struct Experiment
{
    std::unique_ptr<core::Cluster> cluster;
    std::unique_ptr<apps::UpcApp> upc;
    std::unique_ptr<apps::TcApp> tc;
    std::unique_ptr<apps::TsvApp> tsv;
    workloads::OpFactory factory;
};

inline Experiment
make_experiment(const RunSpec& spec)
{
    Experiment experiment;
    experiment.cluster =
        std::make_unique<core::Cluster>(make_config(spec));
    switch (spec.app) {
      case App::kUpc:
        experiment.upc = std::make_unique<apps::UpcApp>(
            *experiment.cluster, spec.scale);
        experiment.factory = experiment.upc->factory();
        break;
      case App::kTc:
        experiment.tc = std::make_unique<apps::TcApp>(
            *experiment.cluster, spec.scale, spec.uniform_alloc);
        experiment.factory = experiment.tc->factory();
        break;
      default:
        experiment.tsv = std::make_unique<apps::TsvApp>(
            *experiment.cluster, spec.scale,
            tsv_window_seconds(spec.app), spec.uniform_alloc);
        experiment.factory = experiment.tsv->factory();
        break;
    }
    return experiment;
}

/** Energy for the measured window (pulse / RPC / RPC-W / Cache+RPC). */
inline double
measure_energy_per_op(core::Cluster& cluster, core::SystemKind system,
                      const serve::TenantFleetStats& result,
                      std::uint32_t nodes)
{
    if (result.finished() == 0 || result.measure_time <= 0) {
        return 0.0;
    }
    double joules = 0.0;
    if (system == core::SystemKind::kPulse) {
        energy::AcceleratorPower power;
        for (NodeId node = 0; node < nodes; node++) {
            energy::AcceleratorActivity activity;
            activity.run_time = result.measure_time;
            const auto& stats = cluster.accelerator(node).stats();
            activity.net_stack_busy_ps = stats.net_stack_time.sum();
            // Physical DRAM busy time (bytes / bandwidth), not the
            // latency-overlapped per-load sums used for Fig. 9.
            activity.mem_pipeline_busy_ps = static_cast<double>(
                cluster.channels(node).bytes_transferred()) /
                cluster.channels(node).total_effective_bandwidth() *
                static_cast<double>(kSecond);
            // Occupancy integral, not the latency-overlapped per-
            // iteration sums Fig. 9 reports.
            activity.logic_pipeline_busy_ps =
                stats.logic_busy_time.sum();
            joules += accelerator_energy(power, activity);
        }
    } else {
        energy::CpuPower power;
        const bool wimpy = system == core::SystemKind::kRpcWimpy;
        energy::CpuActivity activity;
        activity.run_time = result.measure_time;
        activity.clock_ghz = wimpy
                                 ? cluster.config().rpc_wimpy.clock_ghz
                                 : cluster.config().rpc.clock_ghz;
        if (system == core::SystemKind::kCacheRpc) {
            // Cache+RPC executes on the TCP-transport RPC runtime.
            activity.worker_busy_ps =
                cluster.rpc_tcp().stats().worker_busy_time.sum();
        } else {
            activity.worker_busy_ps =
                cluster.rpc(wimpy).stats().worker_busy_time.sum();
        }
        joules = cpu_energy(power, activity) +
                 power.idle_w * to_seconds(result.measure_time) *
                     (nodes - 1);
    }
    return joules / static_cast<double>(result.finished());
}

/**
 * One cell's deferred metrics snapshot. Worker threads record each
 * executed cell into a local exporter (unprefixed names); the sweep
 * runner replays the records into the process-wide MetricsSink in
 * submission order, so the export is byte-identical to the serial
 * run regardless of which worker finished first.
 */
struct SinkRecord
{
    std::string label;
    trace::MetricsExporter metrics;
};

/** Canonical cell label: "<app>.<system>.n<nodes>.c<concurrency>". */
inline std::string
cell_label(const RunSpec& spec)
{
    return std::string(app_name(spec.app)) + "." +
           core::system_name(spec.system) + ".n" +
           std::to_string(spec.nodes) + ".c" +
           std::to_string(spec.concurrency);
}

/** Snapshot everything measured for one executed cell. */
inline SinkRecord
make_sink_record(const RunSpec& spec, const RunOutcome& outcome,
                 core::Cluster& cluster)
{
    SinkRecord record;
    record.label = cell_label(spec);
    record.metrics.set("kops", outcome.kops);
    record.metrics.set("mean_us", outcome.mean_us);
    record.metrics.set("p99_us", outcome.p99_us);
    record.metrics.set("mem_bw_gbps", outcome.mem_bw / 1e9);
    record.metrics.set("net_bw_gbps", outcome.net_bw / 1e9);
    record.metrics.set("joules_per_op", outcome.joules_per_op);
    record.metrics.set("avg_iterations", outcome.avg_iterations);
    record.metrics.add_histogram("latency", outcome.stats.latency);
    cluster.export_metrics(record.metrics, "");
    return record;
}

/**
 * Process-wide unified metrics sink. Enabled by setting the
 * PULSE_METRICS_OUT environment variable to an output path (".json"
 * extension selects JSON, anything else CSV); disabled (the default)
 * it is a strict no-op, so bench stdout is untouched either way.
 * run_spec() records every executed cell automatically (run_cell()
 * defers the record for the sweep runner to replay); benches with
 * bespoke measurement loops add scalars through exporter() and every
 * bench main() calls flush() before exiting.
 *
 * Thread model: replay(), exporter() and flush() are main-thread
 * only. Workers only call enabled() (an immutable read) and build
 * SinkRecords locally.
 */
class MetricsSink
{
  public:
    static MetricsSink&
    instance()
    {
        static MetricsSink sink;
        return sink;
    }

    bool enabled() const { return !path_.empty(); }

    /** Direct access for bench-specific scalars. */
    trace::MetricsExporter& exporter() { return exporter_; }

    /** Next cell tag: "cell<NNN>.<label>." (deterministic order). */
    std::string
    next_prefix(const std::string& label)
    {
        char tag[32];
        std::snprintf(tag, sizeof(tag), "cell%03zu.",
                      cells_++);
        return tag + label + ".";
    }

    /** Merge one deferred cell record under the next cell tag. */
    void
    replay(SinkRecord&& record)
    {
        if (!enabled()) {
            return;
        }
        exporter_.merge_prefixed(next_prefix(record.label),
                                 record.metrics);
    }

    /** Write the snapshot; no-op when disabled, empty, or done. */
    void
    flush()
    {
        if (!enabled() || exporter_.empty() || flushed_) {
            return;
        }
        flushed_ = true;
        if (!exporter_.write_file(path_)) {
            std::fprintf(stderr, "metrics export to %s failed\n",
                         path_.c_str());
        }
    }

  private:
    MetricsSink()
    {
        knobs::Value value;
        knobs::read(knobs::Knob::kMetricsOut, &value, nullptr);
        path_ = value.path;
    }

    std::string path_;
    std::size_t cells_ = 0;
    bool flushed_ = false;
    trace::MetricsExporter exporter_;
};

/** @p ops under the --ops-scale knob, floored at 1; 1.0 keeps it exact. */
inline std::uint64_t
scale_ops(std::uint64_t ops)
{
    const double scale = bench_options().ops_scale;
    return scale == 1.0 ? ops
                        : std::max<std::uint64_t>(
                              1, static_cast<std::uint64_t>(
                                     static_cast<double>(ops) * scale));
}

/** Apply the global --ops-scale knob to a cell's op counts. */
inline RunSpec
apply_ops_scale(RunSpec spec)
{
    spec.warmup_ops = scale_ops(spec.warmup_ops);
    spec.measure_ops = scale_ops(spec.measure_ops);
    return spec;
}

/**
 * Execute one cell without touching any process-wide state: the sink
 * record (if the sink is enabled) is appended to @p records for a
 * later deterministic replay, and the cell's simulated event count is
 * added to @p events. Safe to call from sweep worker threads — the
 * cell builds its own Cluster/EventQueue/Rng and shares nothing.
 */
inline RunOutcome
run_cell(const RunSpec& requested, std::vector<SinkRecord>* records,
         std::uint64_t* events = nullptr)
{
    const RunSpec spec = apply_ops_scale(requested);
    Experiment experiment = make_experiment(spec);
    core::Cluster& cluster = *experiment.cluster;

    serve::TenantLoad load = serve::closed_loop(
        spec.warmup_ops, spec.measure_ops, spec.concurrency);
    load.on_measure_start = [&cluster] { cluster.reset_stats(); };

    RunOutcome outcome;
    outcome.stats = serve::run_closed_loop(
        cluster.queue(), cluster.submitter(spec.system),
        experiment.factory, load);

    const Time window = outcome.stats.measure_time;
    outcome.mem_bw = cluster.memory_bandwidth(window);
    outcome.mem_bw_capacity = cluster.memory_bandwidth_capacity();
    outcome.net_bw = window > 0
                         ? static_cast<double>(
                               cluster.client_network_bytes()) /
                               to_seconds(window)
                         : 0.0;
    outcome.net_bw_capacity =
        2.0 * cluster.config().network.link_bandwidth;  // full duplex
    outcome.joules_per_op = measure_energy_per_op(
        cluster, spec.system, outcome.stats, spec.nodes);
    outcome.avg_iterations =
        outcome.stats.finished()
            ? static_cast<double>(outcome.stats.iterations) /
                  static_cast<double>(outcome.stats.finished())
            : 0.0;
    outcome.mean_us = to_micros(outcome.stats.latency.mean());
    outcome.p99_us = to_micros(outcome.stats.latency.percentile(0.99));
    outcome.kops = outcome.stats.throughput() / 1e3;
    outcome.node_imbalance = cluster.node_load_imbalance();
    if (records != nullptr && MetricsSink::instance().enabled()) {
        records->push_back(make_sink_record(spec, outcome, cluster));
    }
    if (cluster.checker() != nullptr) {
        const std::uint64_t violations = cluster.verify_quiesce();
        if (violations != 0) {
            for (const auto& violation :
                 cluster.checker()->registry().diagnostics()) {
                std::fprintf(stderr, "%s\n",
                             violation.to_string().c_str());
            }
            panic("PULSE_CHECK: %llu violation(s) in cell %s/%s",
                  static_cast<unsigned long long>(violations),
                  app_name(spec.app), core::system_name(spec.system));
        }
    }
    if (events != nullptr) {
        *events += cluster.queue().events_executed();
    }
    return outcome;
}

/** Execute one cell, recording straight into the process sink. */
inline RunOutcome
run_spec(const RunSpec& spec)
{
    std::vector<SinkRecord> records;
    const RunOutcome outcome = run_cell(spec, &records);
    for (SinkRecord& record : records) {
        MetricsSink::instance().replay(std::move(record));
    }
    return outcome;
}

/** Simple fixed-width table printer for the paper-style outputs. */
class Table
{
  public:
    explicit Table(std::string title) : title_(std::move(title)) {}

    void
    set_header(std::vector<std::string> header)
    {
        header_ = std::move(header);
    }

    void
    add_row(std::vector<std::string> row)
    {
        rows_.push_back(std::move(row));
    }

    void
    print() const
    {
        std::printf("\n=== %s ===\n", title_.c_str());
        print_row(header_);
        for (const auto& row : rows_) {
            print_row(row);
        }
        std::fflush(stdout);
    }

  private:
    static void
    print_row(const std::vector<std::string>& row)
    {
        if (row.empty()) {
            return;
        }
        std::printf("%-12s", row[0].c_str());
        for (std::size_t i = 1; i < row.size(); i++) {
            std::printf(" %12s", row[i].c_str());
        }
        std::printf("\n");
    }

    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

inline std::string
fmt(double value, const char* format = "%.1f")
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, value);
    return buf;
}

}  // namespace pulse::bench

#endif  // PULSE_BENCH_BENCH_UTIL_H
