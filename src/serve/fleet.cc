#include "serve/fleet.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <type_traits>
#include <utility>

#include "common/logging.h"

namespace pulse::serve {

namespace {

/** SplitMix64-style per-tenant seed derivation: tenants get distinct,
 *  decorrelated streams from one fleet seed. */
std::uint64_t
tenant_seed(std::uint64_t fleet_seed, TenantId tenant)
{
    std::uint64_t z =
        fleet_seed + 0x9e3779b97f4a7c15ull * (tenant + 1ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Closed-loop backoff jitter: each delay is scaled by
 *  1 + kRetryJitter * U[0,1) from a fixed-seed stream per tenant. */
constexpr double kRetryJitter = 0.1;
constexpr std::uint64_t kRetryJitterSeed = 0x7e7247;

}  // namespace

TenantLoad
closed_loop(std::uint64_t warmup_ops, std::uint64_t measure_ops,
            std::uint32_t concurrency)
{
    TenantLoad load;
    load.arrivals = ArrivalKind::kClosedLoop;
    load.window = concurrency;
    load.max_retries = 0;
    load.retry_backoff = micros(500.0);
    load.total_ops = warmup_ops + measure_ops;
    load.warmup_ops = warmup_ops;
    return load;
}

Fleet::Session::Session(const TenantLoad& l, std::uint64_t seed)
    : load(l),
      rng(seed),
      zipf(std::max<std::uint64_t>(l.keyspace, 1), l.zipf_theta),
      slots(l.arrivals == ArrivalKind::kClosedLoop ? l.window : 0),
      jitter(kRetryJitterSeed),
      measuring(l.arrivals != ArrivalKind::kClosedLoop)
{
    rate_max = l.rate_ops_per_s *
               (1.0 + std::max(0.0, l.diurnal_amplitude)) *
               std::max(1.0, l.flash_multiplier);
}

Fleet::Fleet(sim::EventQueue& queue, const FleetConfig& config,
             MakeOpFn make_op, SubmitFn submit)
    : queue_(queue),
      config_(config),
      make_op_(std::move(make_op)),
      submit_(std::move(submit))
{
    for (const TenantLoad& load : config_.tenants) {
        if (load.arrivals == ArrivalKind::kClosedLoop) {
            PULSE_ASSERT(load.window >= 1,
                         "closed-loop tenant %u needs window >= 1",
                         load.id);
        } else {
            PULSE_ASSERT(load.warmup_ops == 0,
                         "tenant %u: warmup needs a closed loop",
                         load.id);
            PULSE_ASSERT(load.rate_ops_per_s > 0.0,
                         "tenant %u has a non-positive arrival rate",
                         load.id);
            PULSE_ASSERT(load.diurnal_amplitude < 1.0,
                         "tenant %u diurnal amplitude must stay below 1",
                         load.id);
        }
        sessions_.emplace(
            load.id,
            Session(load, tenant_seed(config_.seed, load.id)));
        stats_.emplace(load.id, TenantFleetStats{});
    }
}

double
Fleet::rate_at(const Session& session, Time t) const
{
    const TenantLoad& load = session.load;
    double rate = load.rate_ops_per_s;
    if (load.diurnal_amplitude > 0.0 && load.diurnal_period > 0) {
        const double phase = 2.0 * std::numbers::pi *
                             static_cast<double>(t) /
                             static_cast<double>(load.diurnal_period);
        rate *= 1.0 + load.diurnal_amplitude * std::sin(phase);
    }
    if (load.flash_duration > 0 && t >= load.flash_start &&
        t < load.flash_start + load.flash_duration) {
        rate *= load.flash_multiplier;
    }
    return std::max(rate, 1e-9);
}

double
Fleet::offered_rate(TenantId tenant, Time t) const
{
    const auto it = sessions_.find(tenant);
    PULSE_ASSERT(it != sessions_.end(), "unknown tenant %u", tenant);
    return rate_at(it->second, t);
}

Time
Fleet::draw_next(Session& session, Time from)
{
    if (session.load.arrivals == ArrivalKind::kDeterministic) {
        const double gap_s = 1.0 / rate_at(session, from);
        return from +
               std::max<Time>(static_cast<Time>(gap_s * kSecond), 1);
    }
    // Non-homogeneous Poisson process by thinning (Lewis & Shedler):
    // sample the homogeneous envelope at rate_max, accept each point
    // with probability rate(t)/rate_max. Deterministic given the Rng.
    Time t = from;
    for (;;) {
        const double u = session.rng.next_double();
        const double gap_s = -std::log1p(-u) / session.rate_max;
        t += std::max<Time>(static_cast<Time>(gap_s * kSecond), 1);
        const double accept = rate_at(session, t) / session.rate_max;
        if (session.rng.next_double() < accept) {
            return t;
        }
    }
}

void
Fleet::start(Time horizon)
{
    horizon_ = horizon;
    for (auto& [tenant, session] : sessions_) {
        if (session.load.arrivals == ArrivalKind::kClosedLoop) {
            if (session.load.warmup_ops == 0) {
                open_measurement(session);
            }
            for (std::uint32_t slot = 0; slot < session.load.window;
                 slot++) {
                issue_closed(tenant, slot);
            }
            continue;
        }
        session.next_arrival = draw_next(session, queue_.now());
        schedule_arrival(tenant);
    }
}

void
Fleet::extend(Time new_horizon)
{
    PULSE_ASSERT(new_horizon >= horizon_,
                 "fleet horizon may only move forward");
    horizon_ = new_horizon;
    for (auto& [tenant, session] : sessions_) {
        if (session.parked && !session.exhausted) {
            session.parked = false;
            schedule_arrival(tenant);
        }
    }
}

void
Fleet::schedule_arrival(TenantId tenant)
{
    Session& session = sessions_.at(tenant);
    if (session.exhausted) {
        return;
    }
    if (session.next_arrival >= horizon_) {
        session.parked = true;
        return;
    }
    const Time when = std::max(session.next_arrival, queue_.now());
    queue_.schedule_at(when, [this, tenant]() { on_arrival(tenant); });
}

void
Fleet::on_arrival(TenantId tenant)
{
    Session& session = sessions_.at(tenant);
    TenantFleetStats& stats = stats_[tenant];
    const Time now = queue_.now();
    const TenantLoad& load = session.load;

    // Draw the key: Zipf rank, then rotate the hot set with time.
    std::uint64_t key = session.zipf.next(session.rng);
    if (load.skew_shift > 0) {
        const auto epoch =
            static_cast<std::uint64_t>(now / load.skew_shift);
        key = (key + load.skew_stride * epoch) % session.zipf.size();
    }
    stats.arrivals++;

    const auto active = session.active_by_key.find(key);
    if (load.coalesce && active != session.active_by_key.end()) {
        // Piggyback on the traversal already queued/in flight for
        // this key; its completion answers this arrival too.
        session.entries.at(active->second).waiters.push_back(now);
        stats.coalesced++;
    } else {
        const std::uint64_t token = session.next_token++;
        KeyEntry entry;
        entry.key = key;
        entry.waiters.push_back(now);
        session.entries.emplace(token, std::move(entry));
        if (load.coalesce) {
            session.active_by_key.emplace(key, token);
        }
        session.queued.push_back(token);
        try_issue(tenant);
    }

    if (load.total_ops > 0 && stats.arrivals >= load.total_ops) {
        session.exhausted = true;
        return;
    }
    session.next_arrival = draw_next(session, session.next_arrival);
    schedule_arrival(tenant);
}

void
Fleet::try_issue(TenantId tenant)
{
    Session& session = sessions_.at(tenant);
    while (session.outstanding < session.load.window &&
           !session.queued.empty()) {
        const std::uint64_t token = session.queued.front();
        session.queued.pop_front();
        session.outstanding++;
        issue_token(tenant, token);
    }
}

void
Fleet::issue_token(TenantId tenant, std::uint64_t token)
{
    Session& session = sessions_.at(tenant);
    KeyEntry& entry = session.entries.at(token);
    entry.inflight = true;
    offload::Operation op = make_op_(tenant, entry.key);
    op.tenant = tenant;
    op.done = [this, tenant, token](offload::Completion&& completion) {
        on_completion(tenant, token, std::move(completion));
    };
    stats_[tenant].issued++;
    submit_(tenant, std::move(op));
}

void
Fleet::on_completion(TenantId tenant, std::uint64_t token,
                     offload::Completion&& completion)
{
    Session& session = sessions_.at(tenant);
    TenantFleetStats& stats = stats_[tenant];
    auto it = session.entries.find(token);
    PULSE_ASSERT(it != session.entries.end(),
                 "completion for unknown fleet token");
    KeyEntry& entry = it->second;
    session.outstanding--;

    if (const auto backoff =
            retry_after(tenant, session, completion, entry.attempts)) {
        queue_.schedule_after(*backoff, [this, tenant, token]() {
            issue_token(tenant, token);
        });
        // Keep the window slot across the backoff (issue_token itself
        // does not touch outstanding), so new arrivals cannot starve a
        // backing-off key of its slot.
        session.outstanding++;
        return;
    }
    if (completion.timed_out) {
        stats.failed++;
        retire(session, token);
        try_issue(tenant);
        return;
    }

    const Time now = queue_.now();
    for (const Time arrived : entry.waiters) {
        const Time latency = now - arrived;
        stats.completed++;
        stats.latency.add(latency);
        mix_digest(tenant);
        mix_digest(entry.key);
        mix_digest(static_cast<std::uint64_t>(latency));
    }
    retire(session, token);
    try_issue(tenant);
}

void
Fleet::retire(Session& session, std::uint64_t token)
{
    const auto it = session.entries.find(token);
    if (session.load.coalesce) {
        session.active_by_key.erase(it->second.key);
    }
    session.entries.erase(it);
}

std::optional<Time>
Fleet::retry_after(TenantId tenant, Session& session,
                   const offload::Completion& completion,
                   std::uint32_t& attempt)
{
    // Load-shed (kRejected) or gave up retransmitting: retry with
    // exponential backoff until the budget runs out.
    if (!completion.timed_out || attempt >= session.load.max_retries) {
        return std::nullopt;
    }
    if (session.measuring) {
        TenantFleetStats& stats = stats_[tenant];
        if (completion.rejected) {
            stats.shed_retries++;
        } else {
            stats.timeout_retries++;
        }
    }
    Time delay = session.load.retry_backoff
                 << std::min<std::uint32_t>(attempt, 20);
    attempt++;
    if (session.load.arrivals == ArrivalKind::kClosedLoop) {
        const double jitter =
            1.0 + kRetryJitter * session.jitter.next_double();
        delay = static_cast<Time>(static_cast<double>(delay) * jitter);
    }
    return std::max<Time>(delay, 1);
}

void
Fleet::open_measurement(Session& session)
{
    session.measuring = true;
    session.measure_start = queue_.now();
    if (session.load.on_measure_start) {
        session.load.on_measure_start();
    }
}

void
Fleet::issue_closed(TenantId tenant, std::uint32_t slot)
{
    Session& session = sessions_.at(tenant);
    TenantFleetStats& stats = stats_[tenant];
    if (stats.arrivals >= session.load.total_ops) {
        session.exhausted = true;
        return;
    }
    Session::Slot& state = session.slots[slot];
    state.key = stats.arrivals++;
    state.attempt = 0;
    session.outstanding++;
    submit_closed(tenant, slot, make_op_(tenant, state.key));
}

void
Fleet::submit_closed(TenantId tenant, std::uint32_t slot,
                     offload::Operation&& op)
{
    Session& session = sessions_.at(tenant);
    // Keep a resubmittable copy only when retrying is on (taken before
    // `done` is set: program pointer + inline start state).
    if (session.load.max_retries > 0) {
        session.slots[slot].retry_copy = op;
    }
    auto done = [this, tenant, slot](offload::Completion&& completion) {
        on_closed_completion(tenant, slot, std::move(completion));
    };
    // The closure must stay inside std::function's inline buffer so
    // the closed loop's submit path never heap-allocates.
    static_assert(sizeof(done) <= 16 &&
                      std::is_trivially_copyable_v<decltype(done)>,
                  "completion capture must fit the SBO buffer");
    op.done = done;
    stats_[tenant].issued++;
    submit_(tenant, std::move(op));
}

void
Fleet::on_closed_completion(TenantId tenant, std::uint32_t slot,
                            offload::Completion&& completion)
{
    Session& session = sessions_.at(tenant);
    TenantFleetStats& stats = stats_[tenant];
    Session::Slot& state = session.slots[slot];
    if (const auto backoff =
            retry_after(tenant, session, completion, state.attempt)) {
        // The slot stays occupied across the backoff.
        queue_.schedule_after(*backoff, [this, tenant, slot] {
            submit_closed(tenant, slot,
                          offload::Operation(
                              sessions_.at(tenant).slots[slot].retry_copy));
        });
        return;
    }
    session.outstanding--;
    session.finished++;
    if (session.measuring) {
        if (completion.timed_out) {
            // The give-up "latency" is an artifact of the timeout
            // ladder, so it stays out of the histogram.
            stats.failed++;
        } else {
            stats.completed++;
            stats.latency.add(completion.latency);
            mix_digest(tenant);
            mix_digest(state.key);
            mix_digest(static_cast<std::uint64_t>(completion.latency));
        }
        stats.iterations += completion.iterations;
        if (completion.status != isa::TraversalStatus::kDone ||
            completion.timed_out) {
            stats.errors++;
        }
    }
    if (!session.measuring && session.finished == session.load.warmup_ops) {
        open_measurement(session);
    }
    if (session.finished == session.load.total_ops) {
        stats.measure_time = queue_.now() - session.measure_start;
        return;
    }
    issue_closed(tenant, slot);
}

void
Fleet::mix_digest(std::uint64_t value)
{
    for (int i = 0; i < 8; i++) {
        digest_ ^= (value >> (8 * i)) & 0xFF;
        digest_ *= 0x100000001b3ull;  // FNV-1a prime
    }
}

std::size_t
Fleet::outstanding() const
{
    std::size_t total = 0;
    for (const auto& [tenant, session] : sessions_) {
        total += session.outstanding;
    }
    return total;
}

void
Fleet::checkpoint(StateIo& io)
{
    io.tag("FLET");
    io.i64(horizon_);
    io.u64(digest_);
    io.expect(static_cast<std::uint32_t>(sessions_.size()),
              "tenant count");
    for (auto& [tenant, session] : sessions_) {
        PULSE_ASSERT(session.load.arrivals != ArrivalKind::kClosedLoop,
                     "closed-loop tenant %u does not checkpoint",
                     tenant);
        PULSE_ASSERT(session.outstanding == 0 &&
                         session.queued.empty() &&
                         session.entries.empty(),
                     "fleet checkpoint requires a quiesced fleet "
                     "(tenant %u still has work in flight)",
                     tenant);
        PULSE_ASSERT(io.reading() || session.parked || session.exhausted,
                     "fleet checkpoint requires every arrival process "
                     "parked at the horizon (tenant %u is not)",
                     tenant);
        io.expect(tenant, "tenant id");
        session.rng.checkpoint(io);
        io.i64(session.next_arrival);
        io.boolean(session.parked);
        io.boolean(session.exhausted);
        io.u64(session.next_token);
        TenantFleetStats& stats = stats_[tenant];
        for (std::uint64_t* counter :
             {&stats.arrivals, &stats.issued, &stats.completed,
              &stats.coalesced, &stats.shed_retries,
              &stats.timeout_retries, &stats.failed}) {
            io.u64(*counter);
        }
        stats.latency.checkpoint(io);
    }
}

TenantFleetStats
run_closed_loop(sim::EventQueue& queue, const workloads::SubmitFn& submit,
                const workloads::OpFactory& factory,
                const TenantLoad& load)
{
    PULSE_ASSERT(load.arrivals == ArrivalKind::kClosedLoop,
                 "run_closed_loop needs a closed-loop tenant");
    FleetConfig config;
    config.tenants.push_back(load);
    Fleet fleet(
        queue, config,
        [&factory](TenantId, std::uint64_t key) { return factory(key); },
        [&submit](TenantId, offload::Operation&& op) {
            submit(std::move(op));
        });
    fleet.start(0);
    queue.run();
    TenantFleetStats stats = std::move(fleet.stats_.at(load.id));
    PULSE_ASSERT(fleet.outstanding() == 0 &&
                     stats.arrivals == load.total_ops,
                 "closed loop drained before completion (%llu of %llu "
                 "ops issued)",
                 static_cast<unsigned long long>(stats.arrivals),
                 static_cast<unsigned long long>(load.total_ops));
    return stats;
}

}  // namespace pulse::serve
