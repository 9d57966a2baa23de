/**
 * @file
 * Parallel sweep runner for the figure/table benches.
 *
 * Every paper figure is a sweep of independent, deterministic
 * simulation cells (app x system x nodes x concurrency). Each cell
 * builds its own Cluster — its own EventQueue, Network, Rng — so
 * cells share nothing and their *results* cannot depend on when or
 * where they execute. The runner exploits exactly that: cells run on
 * a worker pool (PULSE_BENCH_THREADS / --threads, default = hardware
 * concurrency, 1 = the historical serial behavior), while everything
 * order-sensitive — MetricsSink cell numbering, consume callbacks,
 * table rows — happens on the main thread afterwards, in add() order.
 * A parallel run is therefore byte-identical to a serial run, which
 * CI enforces (serial vs parallel metrics exports diffed, sweeps run
 * under TSan).
 *
 * Intra-cell parallelism is deliberately absent: a cell is one
 * discrete-event simulation whose determinism depends on executing
 * events in a single total order (equal-timestamp FIFO); the cheap,
 * safe parallelism is across cells.
 *
 * Wall-clock and peak-RSS per cell are reported through the same
 * MetricsExporter machinery into a *separate* artifact
 * (PULSE_BENCH_WALLCLOCK_OUT): timing is inherently nondeterministic,
 * so folding it into the PULSE_METRICS_OUT snapshot would break the
 * byte-identity contract above.
 */
#ifndef PULSE_BENCH_SWEEP_RUNNER_H
#define PULSE_BENCH_SWEEP_RUNNER_H

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"

namespace pulse::bench {

/** Process peak RSS in KiB (Linux ru_maxrss), 0 if unavailable. */
inline long
peak_rss_kib()
{
    rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0) {
        return 0;
    }
    return usage.ru_maxrss;
}

/**
 * Handle given to a cell body while it runs on a worker thread.
 * run_spec() defers its sink record; bespoke bodies account their
 * simulated events through add_events() so the sweep's events/sec
 * self-profile stays meaningful.
 */
class CellContext
{
  public:
    /** Execute a RunSpec cell, deferring its metrics record. */
    RunOutcome
    run_spec(const RunSpec& spec)
    {
        return run_cell(spec, records_, &events_);
    }

    /** Account simulated events executed by a bespoke cell body. */
    void add_events(std::uint64_t n) { events_ += n; }

  private:
    friend class SweepRunner;

    explicit CellContext(std::vector<SinkRecord>* records)
        : records_(records)
    {
    }

    std::vector<SinkRecord>* records_;
    std::uint64_t events_ = 0;
};

/** Cell-level share-nothing parallel sweep (see file comment). */
class SweepRunner
{
  public:
    /** @p name tags the wallclock artifact (usually the figure). */
    explicit SweepRunner(std::string name) : name_(std::move(name)) {}

    /**
     * Add a bespoke cell. @p body runs on a worker thread and must
     * share nothing with other cells (build your own Cluster; write
     * results only to state owned by this cell, e.g. a pre-sized
     * vector slot). @p body must be set.
     */
    void
    add(std::string label, std::function<void(CellContext&)> body)
    {
        Cell cell;
        cell.label = std::move(label);
        cell.body = std::move(body);
        cells_.push_back(std::move(cell));
    }

    /**
     * Add a RunSpec cell. @p consume (optional) receives the outcome
     * on the main thread after the parallel phase, in add() order —
     * the race-free place to fill result maps and table rows.
     */
    void
    add_spec(std::string label, const RunSpec& spec,
             std::function<void(const RunOutcome&)> consume = {})
    {
        Cell cell;
        cell.label = std::move(label);
        cell.spec = std::make_unique<RunSpec>(spec);
        cell.consume = std::move(consume);
        cells_.push_back(std::move(cell));
    }

    std::size_t size() const { return cells_.size(); }

    /**
     * Execute every cell, then replay deferred metrics records and
     * consume callbacks in add() order. Returns total wall seconds.
     */
    double
    run_all()
    {
        // Materialize the process singletons before workers exist.
        MetricsSink::instance();
        const unsigned threads = std::max<unsigned>(
            1, std::min<std::size_t>(bench_options().threads,
                                     cells_.size()));
        const auto sweep_start = std::chrono::steady_clock::now();
        std::atomic<std::size_t> next{0};
        const auto worker = [this, &next] {
            for (;;) {
                const std::size_t index =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (index >= cells_.size()) {
                    return;
                }
                run_one(cells_[index]);
            }
        };
        if (threads == 1) {
            worker();  // exactly the historical serial behavior
        } else {
            std::vector<std::thread> pool;
            pool.reserve(threads - 1);
            for (unsigned i = 0; i + 1 < threads; i++) {
                pool.emplace_back(worker);
            }
            worker();
            for (std::thread& thread : pool) {
                thread.join();
            }
        }
        const double sweep_seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - sweep_start)
                .count();

        // Deterministic post-phase: cell numbering, result
        // consumption, and table state mutate in add() order only.
        for (Cell& cell : cells_) {
            for (SinkRecord& record : cell.records) {
                MetricsSink::instance().replay(std::move(record));
            }
            if (cell.consume) {
                cell.consume(cell.outcome);
            }
        }
        export_wallclock(threads, sweep_seconds);
        return sweep_seconds;
    }

  private:
    struct Cell
    {
        std::string label;
        std::function<void(CellContext&)> body;
        std::unique_ptr<RunSpec> spec;
        std::function<void(const RunOutcome&)> consume;
        RunOutcome outcome;
        std::vector<SinkRecord> records;
        std::uint64_t events = 0;
        double wall_seconds = 0.0;
    };

    void
    run_one(Cell& cell)
    {
        const auto start = std::chrono::steady_clock::now();
        CellContext context(&cell.records);
        if (cell.spec) {
            cell.outcome = context.run_spec(*cell.spec);
        } else {
            cell.body(context);
        }
        cell.events = context.events_;
        cell.wall_seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
    }

    /**
     * Fold the sweep's self-profile into the wallclock artifact
     * (PULSE_BENCH_WALLCLOCK_OUT; separate from PULSE_METRICS_OUT by
     * design — see file comment). Cumulative across sweeps in one
     * process: each run_all() rewrites the file with everything
     * recorded so far.
     */
    void
    export_wallclock(unsigned threads, double sweep_seconds)
    {
        knobs::Value out;
        knobs::read(knobs::Knob::kBenchWallclockOut, &out, nullptr);
        if (out.path.empty()) {
            return;
        }
        static trace::MetricsExporter exporter;
        std::uint64_t events_total = 0;
        std::size_t index = 0;
        for (const Cell& cell : cells_) {
            char tag[32];
            std::snprintf(tag, sizeof(tag), ".cell%03zu.", index++);
            const std::string prefix = name_ + tag + cell.label + ".";
            exporter.set(prefix + "wall_ms",
                         cell.wall_seconds * 1e3);
            exporter.set(prefix + "events",
                         static_cast<double>(cell.events));
            if (cell.wall_seconds > 0.0) {
                exporter.set(prefix + "events_per_sec",
                             static_cast<double>(cell.events) /
                                 cell.wall_seconds);
            }
            events_total += cell.events;
        }
        exporter.set(name_ + ".threads",
                     static_cast<double>(threads));
        exporter.set(name_ + ".cells",
                     static_cast<double>(cells_.size()));
        exporter.set(name_ + ".wall_ms", sweep_seconds * 1e3);
        exporter.set(name_ + ".events",
                     static_cast<double>(events_total));
        if (sweep_seconds > 0.0) {
            exporter.set(name_ + ".events_per_sec",
                         static_cast<double>(events_total) /
                             sweep_seconds);
        }
        exporter.set(name_ + ".peak_rss_kib",
                     static_cast<double>(peak_rss_kib()));
        if (!exporter.write_file(out.path)) {
            std::fprintf(stderr, "wallclock export to %s failed\n",
                         out.path.c_str());
        }
    }

    std::string name_;
    std::vector<Cell> cells_;
};

}  // namespace pulse::bench

#endif  // PULSE_BENCH_SWEEP_RUNNER_H
