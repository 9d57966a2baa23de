/**
 * @file
 * bench_wallclock — self-profiling driver for the simulation hot path
 * and the parallel sweep runner. Produces the BENCH_wallclock.json
 * artifact (format documented in EXPERIMENTS.md).
 *
 * Three measurements, all through an instrumented global allocator
 * (every operator new/new[] call is counted):
 *
 * 1. Event-loop microbenchmark: a self-rescheduling event chain on the
 *    production sim::EventQueue (pooled slots + InlineFunction
 *    callbacks). Reports events/sec and allocations/event.
 *
 * 2. End-to-end cell profile: one representative closed-loop
 *    simulation cell, reporting allocations and events for the whole
 *    run (setup + steady state) — the number that bounds how much the
 *    hot path can still be hiding — the packet arena's peak and
 *    end-of-run slot counts, the event queue's peak pending events,
 *    and the replay window's index probes and response bytes copied
 *    per visit (deterministic counts).
 *
 *    The cell also reports the accelerators' node-memory prefetches
 *    per load (one per load when the prefetch layer works; a
 *    deterministic count).
 *
 *    The same cell's programs then feed an interpreter
 *    microbenchmark: isa::run_iteration alone over iteration states
 *    captured from the cell, in host ns per instruction and as a ratio
 *    to the pooled event loop's ns per event from (1), which the perf
 *    guard can bound on any host.
 *
 * 3. Sweep scaling: a reduced multi-cell sweep executed serially
 *    (--threads=1) and with the configured worker count, reporting
 *    wall clock for both and the speedup. A compute-only spin, timed
 *    on 1 thread before the serial sweep and on the worker count
 *    before the parallel one, gives the cores the host actually
 *    granted (sweep.host_capacity) and the speedup over that
 *    (sweep.efficiency).
 *
 * Options (also honors PULSE_BENCH_THREADS / PULSE_BENCH_OPS_SCALE):
 *   --out=PATH       artifact path (default BENCH_wallclock.json)
 *   --threads=N      worker count for the parallel sweep phase
 *   --ops-scale=X    scale cell op counts (default 0.25 here: this is
 *                    a profiling driver, not a figure reproduction)
 */
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "isa/interpreter.h"
#include "sim/event_queue.h"
#include "sweep_runner.h"

// ---------------------------------------------------------------------
// Instrumented global allocator: counts every heap allocation made by
// the process. Relaxed atomics — counters, not synchronization.
// ---------------------------------------------------------------------

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void*
counted_alloc(std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
    void* ptr = std::malloc(size == 0 ? 1 : size);
    if (ptr == nullptr) {
        throw std::bad_alloc();
    }
    return ptr;
}

}  // namespace

void*
operator new(std::size_t size)
{
    return counted_alloc(size);
}

void*
operator new[](std::size_t size)
{
    return counted_alloc(size);
}

void
operator delete(void* ptr) noexcept
{
    std::free(ptr);
}

void
operator delete[](void* ptr) noexcept
{
    std::free(ptr);
}

void
operator delete(void* ptr, std::size_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void* ptr, std::size_t) noexcept
{
    std::free(ptr);
}

namespace {

using namespace pulse;
using namespace pulse::bench;

std::uint64_t
allocs_now()
{
    return g_allocs.load(std::memory_order_relaxed);
}

double
seconds_since(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

// ---------------------------------------------------------------------
// Phase 1 — event-loop microbenchmark.
// ---------------------------------------------------------------------

/**
 * Capture payload: 96 bytes, which with the chain's two pointers fills
 * an event's whole inline capture budget.
 */
struct Payload
{
    std::uint64_t words[12] = {};
};

struct LoopProfile
{
    double wall_seconds = 0.0;
    std::uint64_t events = 0;
    std::uint64_t allocs = 0;

    double
    events_per_sec() const
    {
        return wall_seconds > 0.0
                   ? static_cast<double>(events) / wall_seconds
                   : 0.0;
    }

    double
    allocs_per_event() const
    {
        return events > 0 ? static_cast<double>(allocs) /
                                static_cast<double>(events)
                          : 0.0;
    }
};

/** Self-rescheduling chains: every event schedules its successor. */
LoopProfile
profile_event_loop(std::uint64_t chains, std::uint64_t total_events)
{
    sim::EventQueue queue;
    std::uint64_t remaining = 0;
    // Recursion through the queue: fn reschedules itself while work
    // remains, carrying a packet-sized payload by value.
    struct Chain
    {
        sim::EventQueue* queue;
        std::uint64_t* remaining;
        void
        fire(const Payload& payload) const
        {
            if (*remaining == 0) {
                return;
            }
            (*remaining)--;
            Payload next = payload;
            next.words[0]++;
            const Chain chain = *this;
            queue->schedule_at(queue->now() + 10,
                               [chain, next] { chain.fire(next); });
        }
    };
    const Chain chain{&queue, &remaining};
    const auto fire_all = [&] {
        for (std::uint64_t i = 0; i < chains; i++) {
            Payload payload;
            payload.words[1] = i;
            chain.fire(payload);
        }
    };

    // Prewarm: one short pass grows the queue's slot pool and heap
    // capacity to their steady-state size, so the measured pass counts
    // only per-event traffic (the answer must be an exact 0, not "0
    // plus amortized vector doublings").
    remaining = chains * 4;
    fire_all();
    queue.run();

    remaining = total_events;
    fire_all();
    LoopProfile profile;
    const std::uint64_t allocs_before = allocs_now();
    const auto start = std::chrono::steady_clock::now();
    profile.events = queue.run();
    profile.wall_seconds = seconds_since(start);
    profile.allocs = allocs_now() - allocs_before;
    return profile;
}

// ---------------------------------------------------------------------
// Phase 2/3 — end-to-end cell profile and sweep scaling.
// ---------------------------------------------------------------------

/**
 * Host ns per executed instruction of isa::run_iteration alone. The
 * starting workspace of each iteration is captured by following
 * @p factory's operations host-side through @p memory; timed passes
 * then replay every state, and the median pass is reported.
 */
double
interpreter_ns_per_instr(const mem::GlobalMemory& memory,
                         const workloads::OpFactory& factory)
{
    constexpr std::size_t kStates = 4096;
    constexpr int kPasses = 101;
    struct State
    {
        std::shared_ptr<const isa::Program> program;
        isa::Workspace workspace;
    };
    std::vector<State> states;
    for (std::uint64_t index = 0; states.size() < kStates; index++) {
        const offload::Operation op = factory(index);
        const isa::Program& program = *op.program;
        isa::Workspace ws;
        ws.configure(program);
        ws.cur_ptr = op.start_ptr;
        std::copy_n(op.init_scratch.data(),
                    std::min(op.init_scratch.size(), ws.scratch.size()),
                    ws.scratch.begin());
        const std::uint32_t load_bytes = program.load_bytes();
        for (std::uint32_t iter = 0; iter < program.max_iters(); iter++) {
            if (ws.cur_ptr == kNullAddr) {
                std::fill_n(ws.data.begin(), load_bytes, 0);
            } else if (load_bytes > 0) {
                memory.read(ws.cur_ptr, ws.data.data(), load_bytes);
            }
            states.push_back(State{op.program, ws});
            if (isa::run_iteration(program, ws).end !=
                isa::IterEnd::kNextIter) {
                break;
            }
        }
    }

    std::vector<isa::Workspace> work(states.size());
    std::vector<double> per_instr;
    for (int pass = 0; pass < kPasses; pass++) {
        for (std::size_t i = 0; i < states.size(); i++) {
            work[i] = states[i].workspace;
        }
        std::uint64_t instructions = 0;
        const auto start = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < states.size(); i++) {
            instructions +=
                isa::run_iteration(*states[i].program, work[i])
                    .instructions_executed;
        }
        per_instr.push_back(seconds_since(start) * 1e9 /
                            static_cast<double>(instructions));
    }
    std::sort(per_instr.begin(), per_instr.end());
    return per_instr[per_instr.size() / 2];
}

/**
 * Wall seconds for @p threads threads to each run the same fixed
 * compute-only loop (no memory traffic, no shared state). On a host
 * that grants every thread a core, this equals the 1-thread time.
 */
double
spin_seconds(unsigned threads)
{
    constexpr std::uint64_t kIterations = 40'000'000;
    std::atomic<std::uint64_t> sink{0};
    const auto spin = [&sink] {
        std::uint64_t x = 0x9E3779B97F4A7C15ull;
        for (std::uint64_t i = 0; i < kIterations; i++) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        sink.fetch_add(x, std::memory_order_relaxed);
    };
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    for (unsigned t = 1; t < threads; t++) {
        workers.emplace_back(spin);
    }
    spin();
    for (std::thread& worker : workers) {
        worker.join();
    }
    return seconds_since(start);
}

/** Reduced sweep: one saturation cell per app on pulse + RPC. */
void
add_sweep_cells(SweepRunner& sweep)
{
    for (const App app : {App::kUpc, App::kTc, App::kTsv15,
                          App::kTsv60}) {
        for (const core::SystemKind system :
             {core::SystemKind::kPulse, core::SystemKind::kRpc}) {
            RunSpec spec = main_spec(app, system, 1);
            spec.concurrency = 256;
            spec.warmup_ops = 256;
            spec.measure_ops = 1024;
            sweep.add_spec(std::string(app_name(app)) + "/" +
                               core::system_name(system),
                           spec);
        }
    }
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string out_path = "BENCH_wallclock.json";
    // This binary profiles; it does not reproduce figures. Default to
    // a quarter of the figure op counts unless told otherwise.
    bench_options().ops_scale = 0.25;
    parse_bench_args(argc, argv);
    for (int i = 1; i < argc; i++) {
        const std::string_view arg(argv[i]);
        constexpr std::string_view kOut = "--out=";
        if (arg.substr(0, kOut.size()) == kOut) {
            out_path = arg.substr(kOut.size());
        } else {
            std::fprintf(stderr, "unknown option %s\n", argv[i]);
            return 2;
        }
    }

    trace::MetricsExporter exporter;

    // Phase 1 — event-loop microbenchmark.
    const std::uint64_t kChains = 64;
    const std::uint64_t kEvents = 2'000'000;
    const LoopProfile pooled = profile_event_loop(kChains, kEvents);
    exporter.set("eventloop.events",
                 static_cast<double>(pooled.events));
    exporter.set("eventloop.pooled.wall_ms",
                 pooled.wall_seconds * 1e3);
    exporter.set("eventloop.pooled.events_per_sec",
                 pooled.events_per_sec());
    exporter.set("eventloop.pooled.allocs_per_event",
                 pooled.allocs_per_event());
    std::printf("event loop: %.2f Mev/s (%.4f allocs/event)\n",
                pooled.events_per_sec() / 1e6,
                pooled.allocs_per_event());

    // Phase 2 — end-to-end cell profile (UPC on pulse, saturating).
    // Measured over the *steady-state window* only: the warmup is long
    // enough for every pool to plateau (the replay window's FIFO budget
    // is the slowest, hence 4096 ops), then allocation and event
    // counters are snapshotted at measure start. The breakdown rows
    // attribute the remaining window allocations to the visit-context
    // pool; the rest count under "other".
    {
        RunSpec spec =
            main_spec(App::kUpc, core::SystemKind::kPulse, 1);
        spec.concurrency = 256;
        spec.warmup_ops = 4096;
        spec.measure_ops = 4096;
        const RunSpec scaled = apply_ops_scale(spec);
        Experiment experiment = make_experiment(scaled);
        core::Cluster& cluster = *experiment.cluster;
        sim::EventQueue& queue = cluster.queue();

        // Sum of one count over every node's accelerator.
        const auto sum_accels = [&cluster](auto count) {
            std::uint64_t total = 0;
            for (NodeId node = 0;
                 node < cluster.config().num_mem_nodes; node++) {
                total += count(cluster.accelerator(node));
            }
            return total;
        };
        // Packets the accelerators received since the last stats
        // reset: one replay-window visit each.
        const auto visits_since_reset = [&sum_accels] {
            return sum_accels([](const accel::Accelerator& a) {
                return a.stats().requests_received.value();
            });
        };
        const auto contexts_created = [&sum_accels] {
            return sum_accels([](const accel::Accelerator& a) {
                return a.contexts_created();
            });
        };
        const auto prefetches = [&sum_accels] {
            return sum_accels([](const accel::Accelerator& a) {
                return a.prefetches();
            });
        };

        std::uint64_t window_allocs = 0;
        std::uint64_t window_events = 0;
        std::uint64_t window_contexts = 0;
        std::uint64_t window_prefetches = 0;
        std::uint64_t warmup_visits = 0;
        std::uint64_t window_coalesced = 0;
        std::uint64_t window_batches = 0;
        double window_wall = 0.0;
        std::chrono::steady_clock::time_point window_start;

        serve::TenantLoad load =
            serve::closed_loop(scaled.warmup_ops, scaled.measure_ops,
                               scaled.concurrency);
        load.on_measure_start = [&] {
            warmup_visits = visits_since_reset();
            cluster.reset_stats();
            window_allocs = allocs_now();
            window_events = queue.events_executed();
            window_contexts = contexts_created();
            window_prefetches = prefetches();
            window_coalesced = queue.events_coalesced();
            window_batches = queue.batches_drained();
            window_start = std::chrono::steady_clock::now();
        };

        const std::uint64_t total_allocs_before = allocs_now();
        serve::run_closed_loop(queue,
                                   cluster.submitter(scaled.system),
                                   experiment.factory, load);
        window_wall = seconds_since(window_start);

        const std::uint64_t allocs = allocs_now() - window_allocs;
        const std::uint64_t events =
            queue.events_executed() - window_events;
        const std::uint64_t visit_allocs =
            contexts_created() - window_contexts;
        const std::uint64_t other_allocs =
            allocs > visit_allocs ? allocs - visit_allocs : 0;
        const std::uint64_t coalesced =
            queue.events_coalesced() - window_coalesced;
        const std::uint64_t batches =
            queue.batches_drained() - window_batches;
        const double allocs_per_event =
            events > 0 ? static_cast<double>(allocs) /
                             static_cast<double>(events)
                       : 0.0;
        exporter.set("sim.events", static_cast<double>(events));
        exporter.set("sim.allocs", static_cast<double>(allocs));
        exporter.set("sim.allocs_per_event", allocs_per_event);
        exporter.set("sim.wall_ms", window_wall * 1e3);
        exporter.set("sim.events_per_sec",
                     window_wall > 0.0
                         ? static_cast<double>(events) / window_wall
                         : 0.0);
        exporter.set("sim.setup.allocs",
                     static_cast<double>(window_allocs -
                                         total_allocs_before));
        exporter.set("sim.breakdown.visit_contexts",
                     static_cast<double>(visit_allocs));
        exporter.set("sim.breakdown.other",
                     static_cast<double>(other_allocs));
        exporter.set("sim.coalescing.events_coalesced",
                     static_cast<double>(coalesced));
        exporter.set("sim.coalescing.batches_drained",
                     static_cast<double>(batches));
        exporter.set("sim.coalescing.events_per_batch",
                     batches > 0 ? static_cast<double>(coalesced) /
                                       static_cast<double>(batches)
                                 : 0.0);
        // Replay window, per visit over the whole run (a visit received
        // before measure start may record its response after it).
        // Deterministic for a given seed, unlike the wall-clock rows.
        const std::uint64_t visits = warmup_visits + visits_since_reset();
        std::uint64_t probes = 0;
        std::uint64_t copy_bytes = 0;
        std::size_t stride_bytes = 0;
        for (NodeId node = 0; node < cluster.config().num_mem_nodes;
             node++) {
            const accel::ReplayWindow& window =
                cluster.accelerator(node).replay_window();
            probes += window.probes();
            copy_bytes += window.copy_bytes();
            stride_bytes = std::max(stride_bytes, window.stride_bytes());
        }
        const double per_visit =
            visits > 0 ? 1.0 / static_cast<double>(visits) : 0.0;
        const double probes_per_visit =
            static_cast<double>(probes) * per_visit;
        const double copy_bytes_per_visit =
            static_cast<double>(copy_bytes) * per_visit;
        exporter.set("sim.replay.probes_per_visit", probes_per_visit);
        exporter.set("sim.replay.copy_bytes_per_visit",
                     copy_bytes_per_visit);
        // The widest per-client response stride: the bytes each cached
        // response holds in the window.
        exporter.set("sim.replay.stride_bytes",
                     static_cast<double>(stride_bytes));
        std::printf("replay window: %.3f probes/visit, %.1f bytes "
                    "copied/visit over %" PRIu64 " visits, %zu-byte "
                    "response stride\n",
                    probes_per_visit, copy_bytes_per_visit, visits,
                    stride_bytes);
        // Node-memory prefetch layer: the accelerators prefetch each
        // load's bytes once, on arrival or when the previous iteration
        // yields the pointer. Both counts cover the measure window.
        const std::uint64_t loads =
            sum_accels([](const accel::Accelerator& a) {
                return a.stats().loads.value();
            });
        const double prefetches_per_load =
            loads > 0 ? static_cast<double>(prefetches() -
                                            window_prefetches) /
                            static_cast<double>(loads)
                      : 0.0;
        exporter.set("sim.mem.prefetches_per_load", prefetches_per_load);
        std::printf("node memory: %.4f prefetches/load over %" PRIu64
                    " loads\n",
                    prefetches_per_load, loads);
        // Packet arena: the run drained, so every slot must be back.
        const net::PacketArena& arena = cluster.packets();
        exporter.set("sim.arena.peak_slots",
                     static_cast<double>(arena.peak()));
        exporter.set("sim.arena.live_at_end",
                     static_cast<double>(arena.live()));
        std::printf("simulation cell: %" PRIu64 " steady-state events, "
                    "%.4f allocs/event (visit %" PRIu64
                    ", other %" PRIu64 "), "
                    "%" PRIu64 " coalesced into %" PRIu64 " batches\n",
                    events, allocs_per_event, visit_allocs, other_allocs,
                    coalesced, batches);
        std::printf("packet arena: peak %zu slots, %zu live at end\n",
                    arena.peak(), arena.live());
        // Event queue high-water mark over the whole cell: live events
        // only, about one retransmit timer and one in-transit event
        // per operation in flight.
        exporter.set("sim.peak_pending",
                     static_cast<double>(queue.peak_pending()));
        std::printf("event queue: peak %zu pending at concurrency %u\n",
                    queue.peak_pending(), scaled.concurrency);

        // Phase 2b — checkpoint/restore cost on the warmed cluster
        // (the queue is drained, so this is a legal quiesce point).
        // Skipped when an optional plane is attached (PULSE_CHECK
        // etc.): those are outside the snapshot by design.
        if (cluster.checker() != nullptr ||
            cluster.fault_plane() != nullptr ||
            cluster.placement_plane() != nullptr ||
            cluster.replication_plane() != nullptr ||
            cluster.serve_plane() != nullptr ||
            cluster.tracer().enabled()) {
            std::printf("checkpoint: skipped (optional plane "
                        "attached)\n");
        } else {
        const auto save_start = std::chrono::steady_clock::now();
        const std::vector<std::uint8_t> blob =
            cluster.save_checkpoint();
        const double save_wall = seconds_since(save_start);
        const auto restore_start = std::chrono::steady_clock::now();
        std::string restore_error;
        const bool restored =
            cluster.restore_checkpoint(blob, &restore_error);
        PULSE_ASSERT(restored,
                     "restoring the cluster's own checkpoint: %s",
                     restore_error.c_str());
        const double restore_wall = seconds_since(restore_start);
        exporter.set("checkpoint.bytes",
                     static_cast<double>(blob.size()));
        exporter.set("checkpoint.save_ms", save_wall * 1e3);
        exporter.set("checkpoint.restore_ms", restore_wall * 1e3);
        std::printf("checkpoint: %.1f KiB, save %.2f ms, restore "
                    "%.2f ms\n",
                    static_cast<double>(blob.size()) / 1024.0,
                    save_wall * 1e3, restore_wall * 1e3);
        }

        // Phase 2c — the interpreter alone, on this cell's programs,
        // and as a ratio to the pooled event loop timed in phase 1.
        const double ns_per_instr =
            interpreter_ns_per_instr(cluster.memory(), experiment.factory);
        const double ns_per_event = pooled.wall_seconds * 1e9 /
                                    static_cast<double>(pooled.events);
        exporter.set("isa.ns_per_instr", ns_per_instr);
        exporter.set("isa.instr_per_event_ratio",
                     ns_per_instr / ns_per_event);
        std::printf("interpreter: %.2f ns/instruction, %.3f of a pooled "
                    "event (%.2f ns)\n",
                    ns_per_instr, ns_per_instr / ns_per_event,
                    ns_per_event);
    }

    // Phase 3 — sweep scaling, serial vs parallel.
    const unsigned parallel_threads = bench_options().threads;
    bench_options().threads = 1;
    const double spin_serial = spin_seconds(1);
    double serial_seconds = 0.0;
    {
        SweepRunner sweep("wallclock_serial");
        add_sweep_cells(sweep);
        serial_seconds = sweep.run_all();
    }
    bench_options().threads = parallel_threads;
    const double spin_parallel = spin_seconds(parallel_threads);
    double parallel_seconds = 0.0;
    {
        SweepRunner sweep("wallclock_parallel");
        add_sweep_cells(sweep);
        parallel_seconds = sweep.run_all();
    }
    // Honest thread reporting (docs/PERF.md): emit the worker count
    // actually used *and* the hardware concurrency, and flag runs
    // where the speedup is bounded by the machine rather than the
    // runner — a 1.0x "speedup" on a 1-core container is the expected
    // ceiling, not a scaling regression.
    const unsigned hardware_threads =
        std::max(1u, std::thread::hardware_concurrency());
    exporter.set("sweep.cells", 8.0);
    exporter.set("sweep.serial.wall_ms", serial_seconds * 1e3);
    exporter.set("sweep.parallel.wall_ms", parallel_seconds * 1e3);
    exporter.set("sweep.parallel.threads",
                 static_cast<double>(parallel_threads));
    exporter.set("sweep.hardware_concurrency",
                 static_cast<double>(hardware_threads));
    exporter.set("sweep.parallel.oversubscribed",
                 parallel_threads > hardware_threads ? 1.0 : 0.0);
    const double speedup =
        parallel_seconds > 0.0 ? serial_seconds / parallel_seconds : 0.0;
    // Cores the host granted the spin: N threads' work over the time
    // one thread's work took. Report-only, like the wall-clock rows.
    const double host_capacity = static_cast<double>(parallel_threads) *
                                 spin_serial / spin_parallel;
    exporter.set("sweep.speedup", speedup);
    exporter.set("sweep.host_capacity", host_capacity);
    exporter.set("sweep.efficiency", speedup / host_capacity);
    exporter.set("process.peak_rss_kib",
                 static_cast<double>(peak_rss_kib()));
    std::printf("sweep: serial %.2f s, parallel %.2f s on %u "
                "threads (%.2fx of a %.2f-core host capacity, %u "
                "hardware thread%s%s)\n",
                serial_seconds, parallel_seconds, parallel_threads,
                speedup, host_capacity,
                hardware_threads, hardware_threads == 1 ? "" : "s",
                parallel_threads > hardware_threads
                    ? "; oversubscribed — speedup bounded by the "
                      "machine, not the runner"
                    : "");

    if (!exporter.write_file(out_path)) {
        std::fprintf(stderr, "failed to write %s\n",
                     out_path.c_str());
        return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
