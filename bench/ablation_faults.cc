/**
 * @file
 * Fault-injection ablation: how gracefully does each system degrade
 * when the rack stops being polite?
 *
 * (a) Link-loss sweep: per-directed-link drop probability 0%, 0.1%,
 *     1% (a traversal crosses at least two links, so the end-to-end
 *     loss is roughly double). pulse rides on the offload engine's
 *     adaptive RTO + the accelerator replay window; RPC runs its
 *     opt-in at-most-once reliable mode. Goodput should sag, not
 *     cliff, and no operation may execute twice.
 *
 * (b) Node-stall sweep: the memory node freezes periodically (GC-style
 *     pauses) for 0 / 200 us / 1 ms out of every 2 ms. Stalls inflate
 *     tail latency and trip retransmissions whose duplicates must be
 *     absorbed by the dedup machinery.
 *
 * Zero-fault rows double as the regression reference: with the plane
 * disabled the numbers must match the corresponding healthy-network
 * benchmarks bit-for-bit.
 *
 * Cells execute on the parallel sweep runner (--threads /
 * PULSE_BENCH_THREADS); each writes its own pre-sized result slot, so
 * outputs are byte-identical to a serial run.
 */
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "sweep_runner.h"

namespace {

using namespace pulse;
using namespace pulse::bench;

const std::vector<core::SystemKind> kSystems = {
    core::SystemKind::kPulse, core::SystemKind::kRpc};
const std::vector<double> kLosses = {0.0, 0.001, 0.01};
const std::vector<double> kStallsUs = {0.0, 200.0, 1000.0};

struct FaultPoint
{
    std::string label;
    core::SystemKind system = core::SystemKind::kPulse;
    double goodput_kops = 0.0;
    double mean_us = 0.0;
    double p99_us = 0.0;
    std::uint64_t retransmits = 0;
    std::uint64_t replays = 0;
    std::uint64_t failed = 0;
};

std::vector<FaultPoint> g_loss(kSystems.size() * kLosses.size());
std::vector<FaultPoint> g_stall(kSystems.size() * kStallsUs.size());

/** Periodic stall script: @p duration out of every 2 ms, node 0. */
void
add_stall_script(core::ClusterConfig& config, Time duration)
{
    const Time period = micros(2000.0);
    for (int i = 0; i < 200; i++) {
        config.faults.timeline.push_back(
            {.node = 0, .kind = faults::NodeFaultKind::kStall,
             .start = period * i, .end = period * i + duration});
    }
}

FaultPoint
run_fault_cell(CellContext& ctx, const std::string& label,
               core::SystemKind system,
               const std::function<void(core::ClusterConfig&)>& inject)
{
    RunSpec spec = main_spec(App::kUpc, system, 1);
    spec.concurrency = 16;
    spec.warmup_ops = 200;
    spec.measure_ops = 1200;
    spec.tweak = [&](core::ClusterConfig& config) {
        // Reliability knobs, opt-in for this sweep: RPC's at-most-once
        // mode and pulse's adaptive RTO. The fixed timeout doubles as
        // the pre-first-sample initial RTO and the adaptive ceiling;
        // the healthy-run default (20 ms) is deliberately paranoid, so
        // a fault-tolerant deployment tunes it down — otherwise a
        // packet lost before the estimator's first sample costs the
        // full 20 ms (TCP ships with a 1 s initial RTO for the same
        // reason, not infinity).
        config.rpc.retransmit_timeout = micros(500.0);
        config.offload.adaptive_rto = true;
        config.offload.retransmit_timeout = micros(2000.0);
        inject(config);
    };

    Experiment experiment = make_experiment(spec);
    core::Cluster& cluster = *experiment.cluster;
    serve::TenantLoad load =
        serve::closed_loop(spec.warmup_ops, spec.measure_ops,
                           spec.concurrency);
    load.on_measure_start = [&cluster] { cluster.reset_stats(); };
    const serve::TenantFleetStats result = serve::run_closed_loop(
        cluster.queue(), cluster.submitter(system),
        experiment.factory, load);
    ctx.add_events(cluster.queue().events_executed());

    FaultPoint point;
    point.label = label;
    point.system = system;
    const double window = to_seconds(result.measure_time);
    point.goodput_kops =
        window > 0 ? static_cast<double>(result.completed) / window / 1e3
                   : 0.0;
    point.mean_us = to_micros(result.latency.mean());
    point.p99_us = to_micros(result.latency.percentile(0.99));
    point.failed = result.failed;
    if (system == core::SystemKind::kPulse) {
        point.retransmits =
            cluster.offload_engine().stats().retransmits.value();
        point.replays =
            cluster.accelerator(0).stats().replays_sent.value() +
            cluster.accelerator(0)
                .stats()
                .duplicates_suppressed.value();
    } else {
        point.retransmits = cluster.rpc().stats().retransmits.value();
        point.replays = cluster.rpc().stats().replays.value();
    }
    return point;
}

void
add_cells(SweepRunner& sweep)
{
    for (std::size_t s = 0; s < kSystems.size(); s++) {
        for (std::size_t l = 0; l < kLosses.size(); l++) {
            const core::SystemKind system = kSystems[s];
            const double loss = kLosses[l];
            const std::size_t slot = s * kLosses.size() + l;
            sweep.add(
                std::string("loss_") + core::system_name(system) +
                    "_" + fmt(loss * 100.0, "%.1f"),
                [system, loss, slot](CellContext& ctx) {
                    g_loss[slot] = run_fault_cell(
                        ctx, fmt(loss * 100.0, "%.1f") + "%", system,
                        [loss](core::ClusterConfig& config) {
                            config.faults.links.loss = loss;
                        });
                });
        }
    }
    for (std::size_t s = 0; s < kSystems.size(); s++) {
        for (std::size_t t = 0; t < kStallsUs.size(); t++) {
            const core::SystemKind system = kSystems[s];
            const double stall_us = kStallsUs[t];
            const std::size_t slot = s * kStallsUs.size() + t;
            sweep.add(
                std::string("stall_") + core::system_name(system) +
                    "_" + fmt(stall_us, "%.0f"),
                [system, stall_us, slot](CellContext& ctx) {
                    g_stall[slot] = run_fault_cell(
                        ctx, fmt(stall_us, "%.0f") + "us", system,
                        [stall_us](core::ClusterConfig& config) {
                            if (stall_us > 0.0) {
                                add_stall_script(config,
                                                 micros(stall_us));
                            }
                        });
                });
        }
    }
}

void
register_benchmarks()
{
    for (std::size_t s = 0; s < kSystems.size(); s++) {
        for (std::size_t l = 0; l < kLosses.size(); l++) {
            const std::size_t slot = s * kLosses.size() + l;
            benchmark::RegisterBenchmark(
                (std::string("faults/loss_") +
                 core::system_name(kSystems[s]) + "_" +
                 fmt(kLosses[l] * 100.0, "%.1f"))
                    .c_str(),
                [slot](benchmark::State& state) {
                    const FaultPoint& point = g_loss[slot];
                    for (auto _ : state) {
                    }
                    state.counters["goodput_kops"] =
                        point.goodput_kops;
                    state.counters["p99_us"] = point.p99_us;
                    state.counters["failed"] =
                        static_cast<double>(point.failed);
                })
                ->Iterations(1)
                ->Unit(benchmark::kMillisecond);
        }
    }
    for (std::size_t s = 0; s < kSystems.size(); s++) {
        for (std::size_t t = 0; t < kStallsUs.size(); t++) {
            const std::size_t slot = s * kStallsUs.size() + t;
            benchmark::RegisterBenchmark(
                (std::string("faults/stall_") +
                 core::system_name(kSystems[s]) + "_" +
                 fmt(kStallsUs[t], "%.0f"))
                    .c_str(),
                [slot](benchmark::State& state) {
                    const FaultPoint& point = g_stall[slot];
                    for (auto _ : state) {
                    }
                    state.counters["goodput_kops"] =
                        point.goodput_kops;
                    state.counters["p99_us"] = point.p99_us;
                })
                ->Iterations(1)
                ->Unit(benchmark::kMillisecond);
        }
    }
}

}  // namespace

int
main(int argc, char** argv)
{
    parse_bench_args(argc, argv);
    benchmark::Initialize(&argc, argv);
    SweepRunner sweep("ablation_faults");
    add_cells(sweep);
    sweep.run_all();
    register_benchmarks();
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    Table loss("Fault ablation: per-link loss sweep (UPC, 1 node, "
               "concurrency 16; goodput excludes failed ops)");
    loss.set_header({"system", "loss", "goodput_kops", "mean_us",
                     "p99_us", "retrans", "replays", "failed"});
    for (const auto& point : g_loss) {
        loss.add_row({core::system_name(point.system), point.label,
                      fmt(point.goodput_kops), fmt(point.mean_us),
                      fmt(point.p99_us),
                      std::to_string(point.retransmits),
                      std::to_string(point.replays),
                      std::to_string(point.failed)});
    }
    loss.print();

    Table stall("Fault ablation: periodic node stall (duration out "
                "of every 2 ms, node 0)");
    stall.set_header({"system", "stall", "goodput_kops", "mean_us",
                      "p99_us", "retrans", "replays"});
    for (const auto& point : g_stall) {
        stall.add_row({core::system_name(point.system), point.label,
                       fmt(point.goodput_kops), fmt(point.mean_us),
                       fmt(point.p99_us),
                       std::to_string(point.retransmits),
                       std::to_string(point.replays)});
    }
    stall.print();

    auto& metrics = MetricsSink::instance().exporter();
    const auto record = [&metrics](const std::string& sweep_name,
                                   const FaultPoint& point) {
        const std::string prefix =
            "faults." + sweep_name + "." +
            core::system_name(point.system) + "." + point.label + ".";
        metrics.set(prefix + "goodput_kops", point.goodput_kops);
        metrics.set(prefix + "mean_us", point.mean_us);
        metrics.set(prefix + "p99_us", point.p99_us);
        metrics.set(prefix + "retransmits",
                    static_cast<double>(point.retransmits));
        metrics.set(prefix + "replays",
                    static_cast<double>(point.replays));
        metrics.set(prefix + "failed",
                    static_cast<double>(point.failed));
    };
    for (const auto& point : g_loss) {
        record("loss", point);
    }
    for (const auto& point : g_stall) {
        record("stall", point);
    }
    MetricsSink::instance().flush();
    return 0;
}
