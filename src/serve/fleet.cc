#include "serve/fleet.h"

#include <algorithm>
#include <cmath>
#include <numbers>
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

}  // namespace

Fleet::Session::Session(const TenantLoad& l, std::uint64_t seed)
    : load(l),
      rng(seed),
      zipf(std::max<std::uint64_t>(l.keyspace, 1), l.zipf_theta)
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
        PULSE_ASSERT(load.rate_ops_per_s > 0.0,
                     "tenant %u has a non-positive arrival rate",
                     load.id);
        PULSE_ASSERT(load.diurnal_amplitude < 1.0,
                     "tenant %u diurnal amplitude must stay below 1",
                     load.id);
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

    if (completion.timed_out) {
        // Load-shed (kRejected) or gave up retransmitting: retry with
        // deterministic exponential backoff, then drop the key.
        if (entry.attempts < session.load.max_retries) {
            entry.attempts++;
            if (completion.rejected) {
                stats.shed_retries++;
            } else {
                stats.timeout_retries++;
            }
            const std::uint32_t shift =
                std::min<std::uint32_t>(entry.attempts - 1, 20);
            const Time backoff = std::max<Time>(
                session.load.retry_backoff << shift, 1);
            queue_.schedule_after(backoff, [this, tenant, token]() {
                issue_token(tenant, token);
            });
            // Keep the window slot across the backoff (issue_token
            // itself does not touch outstanding), so new arrivals
            // cannot starve a backing-off key of its slot.
            session.outstanding++;
            return;
        }
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

}  // namespace pulse::serve
