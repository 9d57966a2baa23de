/**
 * @file
 * Client-fleet generator for the multi-tenant serving plane.
 *
 * Models a production client fleet driving the cluster *open loop*:
 * each tenant's requests arrive on their own clock (Poisson or
 * deterministic) regardless of how fast earlier ones complete, so
 * overload shows up as queueing/shedding instead of silently slowing
 * the generator down — the difference between closed-loop benches
 * (bench/fig*) and what a serving deployment actually sees.
 *
 * Per tenant the generator supports:
 *   - a diurnal load curve (sinusoidal rate multiplier),
 *   - a flash-crowd window (step rate multiplier),
 *   - time-shifting Zipf key skew (the hot set rotates through the
 *     keyspace on a fixed period),
 *   - client-side batching: a bounded window of outstanding traversals
 *     with request coalescing (concurrent arrivals for one key share a
 *     single in-flight traversal),
 *   - retry with deterministic exponential backoff when a request is
 *     load-shed (kRejected) or times out.
 *
 * Everything is driven by seeded Rngs and simulated time only, so a
 * run is bit-reproducible, and checkpoint() saves or restores a
 * quiesced fleet mid-schedule (tests/test_serving.cc round-trips a
 * checkpoint taken mid-flash-crowd and proves the continuation
 * bit-identical via the completion digest).
 */
#ifndef PULSE_SERVE_FLEET_H
#define PULSE_SERVE_FLEET_H

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "common/histogram.h"
#include "common/random.h"
#include "common/serial.h"
#include "common/stats.h"
#include "offload/offload_engine.h"
#include "serve/serve_config.h"
#include "sim/event_queue.h"
#include "trace/metrics_exporter.h"

namespace pulse::serve {

/** How a tenant's inter-arrival times are drawn. */
enum class ArrivalKind : std::uint8_t {
    kPoisson,        ///< open-loop Poisson process (thinning for NHPP)
    kDeterministic,  ///< evenly spaced at the instantaneous rate
};

/** Load shape of one tenant's client fleet. */
struct TenantLoad
{
    TenantId id = 0;

    ArrivalKind arrivals = ArrivalKind::kPoisson;

    /** Base arrival rate, new traversals per second. */
    double rate_ops_per_s = 10000.0;

    /**
     * Diurnal curve: rate multiplier 1 + amplitude * sin(2*pi*t/period).
     * Amplitude 0 (default) disables it; must stay < 1.
     */
    double diurnal_amplitude = 0.0;
    Time diurnal_period = kSecond;

    /** Flash crowd: rate multiplied by flash_multiplier inside
     *  [flash_start, flash_start + flash_duration). */
    Time flash_start = 0;
    Time flash_duration = 0;
    double flash_multiplier = 1.0;

    /** Key popularity: Zipf(theta) over [0, keyspace). */
    std::uint64_t keyspace = 1024;
    double zipf_theta = 0.99;

    /**
     * Time-shifting skew: every skew_shift the hot set rotates by
     * skew_stride keys (key = (rank + stride * floor(t/shift)) mod
     * keyspace). 0 disables rotation.
     */
    Time skew_shift = 0;
    std::uint64_t skew_stride = 1;

    /** Max outstanding traversals (client-side batching window). */
    std::uint32_t window = 64;

    /** Coalesce concurrent arrivals for one key onto one traversal. */
    bool coalesce = true;

    /** Retries after a shed/timeout before giving up on a key. */
    std::uint32_t max_retries = 4;

    /** Backoff before retry attempt k: retry_backoff << k. */
    Time retry_backoff = micros(50.0);

    /** Stop after this many arrivals (0 = until the horizon). */
    std::uint64_t total_ops = 0;
};

/** Fleet-wide knobs. */
struct FleetConfig
{
    std::uint64_t seed = 42;
    std::vector<TenantLoad> tenants;
};

/** Per-tenant serving telemetry. */
struct TenantFleetStats
{
    std::uint64_t arrivals = 0;   ///< generated requests
    std::uint64_t issued = 0;     ///< traversals put in flight
    std::uint64_t completed = 0;  ///< arrivals answered
    std::uint64_t coalesced = 0;  ///< arrivals piggybacked on in-flight
    std::uint64_t shed_retries = 0;     ///< re-issues after kRejected
    std::uint64_t timeout_retries = 0;  ///< re-issues after timeout
    std::uint64_t failed = 0;     ///< keys dropped after max_retries
    Histogram latency;            ///< arrival -> completion
};

/**
 * The fleet: one open-loop arrival process per tenant, feeding
 * operations through the cluster's per-client offload engines.
 */
class Fleet
{
  public:
    /** Build the traversal for (tenant, key): program + start pointer.
     *  The fleet stamps Operation::tenant and owns the completion. */
    using MakeOpFn =
        std::function<offload::Operation(TenantId, std::uint64_t)>;

    /** Hand a ready operation to a tenant's offload engine. */
    using SubmitFn =
        std::function<void(TenantId, offload::Operation&&)>;

    Fleet(sim::EventQueue& queue, const FleetConfig& config,
          MakeOpFn make_op, SubmitFn submit);

    /**
     * Start every tenant's arrival process and generate arrivals up to
     * @p horizon (exclusive); arrivals past it park until extend().
     * Completions of issued work still drain after the horizon — run
     * the event queue until quiesced.
     */
    void start(Time horizon);

    /** Resume parked arrival processes up to @p new_horizon. */
    void extend(Time new_horizon);

    /** Instantaneous offered rate of @p tenant at time @p t (op/s). */
    double offered_rate(TenantId tenant, Time t) const;

    /** Per-tenant telemetry (deterministic iteration order). */
    const std::map<TenantId, TenantFleetStats>& stats() const
    {
        return stats_;
    }

    /**
     * Order-sensitive FNV-1a digest over every completion event
     * (tenant, key, latency): two runs are behaviorally identical iff
     * their digests match. The serving tests compare an uninterrupted
     * run against a checkpoint/restore continuation with it.
     */
    std::uint64_t completion_digest() const { return digest_; }

    /** Traversals currently in flight across all tenants. */
    std::size_t outstanding() const;

    /**
     * Checkpoint support: requires a *quiesced* fleet — no outstanding
     * traversals, no queued arrivals, every arrival process parked at
     * the horizon (i.e. the event queue drained). Mid-schedule state
     * (each tenant's Rng, next arrival time, counters, histograms, the
     * digest) round-trips bit-exactly. Restoring needs a fleet built
     * from the same tenant list.
     */
    void checkpoint(StateIo& io);

    /** Export per-tenant metrics under @p prefix ("serve.tenantN..."). */
    void export_metrics(trace::MetricsExporter& exporter,
                        const std::string& prefix) const;

  private:
    /**
     * One logical traversal: the key it reads, the arrival times it
     * answers (several when coalescing piggybacks later arrivals onto
     * an in-flight one), and the retry budget consumed. Keyed by a
     * per-session monotonic token so coalescing stays an explicit
     * index (active_by_key) rather than an accident of key reuse.
     */
    struct KeyEntry
    {
        std::uint64_t key = 0;
        bool inflight = false;
        std::uint32_t attempts = 0;
        std::vector<Time> waiters;
    };

    /** Runtime state of one tenant's arrival process. */
    struct Session
    {
        TenantLoad load;
        Rng rng;
        ZipfGenerator zipf;
        double rate_max = 0.0;  ///< thinning envelope (NHPP sampling)
        Time next_arrival = 0;
        bool parked = false;     ///< next_arrival is past the horizon
        bool exhausted = false;  ///< total_ops generated
        std::uint64_t outstanding = 0;
        std::uint64_t next_token = 1;
        std::deque<std::uint64_t> queued;  ///< tokens awaiting window
        std::map<std::uint64_t, KeyEntry> entries;  ///< by token
        /** key -> token of its active entry (coalescing index). */
        std::map<std::uint64_t, std::uint64_t> active_by_key;

        Session(const TenantLoad& l, std::uint64_t seed);
    };

    double rate_at(const Session& session, Time t) const;
    Time draw_next(Session& session, Time from);
    void schedule_arrival(TenantId tenant);
    void on_arrival(TenantId tenant);
    void try_issue(TenantId tenant);
    void issue_token(TenantId tenant, std::uint64_t token);
    void on_completion(TenantId tenant, std::uint64_t token,
                       offload::Completion&& completion);
    void retire(Session& session, std::uint64_t token);
    void mix_digest(std::uint64_t value);

    sim::EventQueue& queue_;
    FleetConfig config_;
    MakeOpFn make_op_;
    SubmitFn submit_;
    Time horizon_ = 0;
    std::map<TenantId, Session> sessions_;
    std::map<TenantId, TenantFleetStats> stats_;
    std::uint64_t digest_ = 0xcbf29ce484222325ull;  ///< FNV-1a basis
};

}  // namespace pulse::serve

#endif  // PULSE_SERVE_FLEET_H
