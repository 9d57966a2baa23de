/**
 * @file
 * Serving-plane tests (src/serve): the client-fleet generator — seeded
 * reproducibility, diurnal/flash-crowd rate tracking, coalescing, the
 * outstanding window, mid-flash-crowd checkpoint round-trips — and the
 * QoS admission controller — token-bucket throttling with exact
 * counters, park-cap load shedding as typed kRejected completions,
 * per-class queue-depth caps, fresh-root-only charging, and the
 * off-by-default gating (no plane constructed, no metrics keys).
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "common/serial.h"
#include "core/cluster.h"
#include "ds/hash_table.h"
#include "ds/linked_list.h"
#include "golden_digest.h"
#include "serve/fleet.h"
#include "serve/fleet.h"
#include "serve/qos.h"
#include "sim/event_queue.h"
#include "trace/metrics_exporter.h"

namespace pulse {
namespace {

using core::Cluster;
using core::ClusterConfig;
using core::SystemKind;

constexpr Time
millis(double ms)
{
    return micros(ms * 1000.0);
}

// ------------------------------------------------- fleet (generator)

/**
 * Fleet harness with a fake backend: every submitted traversal
 * completes successfully after @p service time. Isolates the arrival
 * process, coalescing and windowing from the cluster.
 */
struct FakeBackend
{
    sim::EventQueue queue;
    Time service = micros(5.0);
    std::uint64_t submitted = 0;
    std::uint64_t max_inflight = 0;
    std::uint64_t inflight = 0;

    serve::Fleet::MakeOpFn
    make_op()
    {
        return [](serve::TenantId, std::uint64_t) {
            return offload::Operation{};
        };
    }

    serve::Fleet::SubmitFn
    submit()
    {
        return [this](serve::TenantId, offload::Operation&& op) {
            submitted++;
            inflight++;
            max_inflight = std::max(max_inflight, inflight);
            auto done = std::move(op.done);
            queue.schedule_after(service,
                                 [this, done = std::move(done)]() {
                                     inflight--;
                                     done(offload::Completion{});
                                 });
        };
    }
};

serve::TenantLoad
poisson_tenant(serve::TenantId id, double rate)
{
    serve::TenantLoad load;
    load.id = id;
    load.rate_ops_per_s = rate;
    return load;
}

TEST(Fleet, DeterministicArrivalsMatchTheConfiguredRate)
{
    FakeBackend backend;
    serve::FleetConfig config;
    serve::TenantLoad load = poisson_tenant(0, 1e6);
    load.arrivals = serve::ArrivalKind::kDeterministic;
    config.tenants.push_back(load);

    serve::Fleet fleet(backend.queue, config, backend.make_op(),
                       backend.submit());
    fleet.start(millis(1.0));
    backend.queue.run();

    // 1e6/s over 1 ms = one arrival per us, first at t = 1 us.
    const std::uint64_t arrivals = fleet.stats().at(0).arrivals;
    EXPECT_GE(arrivals, 990u);
    EXPECT_LE(arrivals, 1000u);
    EXPECT_EQ(fleet.stats().at(0).completed, arrivals);
    EXPECT_EQ(fleet.outstanding(), 0u);
}

TEST(Fleet, PoissonArrivalsTrackDiurnalAndFlashCurves)
{
    FakeBackend backend;
    serve::FleetConfig config;
    serve::TenantLoad load = poisson_tenant(7, 2e5);
    load.diurnal_amplitude = 0.5;
    load.diurnal_period = millis(10.0);
    load.flash_start = millis(5.0);
    load.flash_duration = millis(5.0);
    load.flash_multiplier = 4.0;
    config.tenants.push_back(load);

    serve::Fleet fleet(backend.queue, config, backend.make_op(),
                       backend.submit());

    // The offered-rate curve is exact by construction.
    EXPECT_DOUBLE_EQ(fleet.offered_rate(7, 0), 2e5);
    EXPECT_DOUBLE_EQ(fleet.offered_rate(7, millis(2.5)),
                     2e5 * 1.5);  // diurnal peak (sin = 1)
    EXPECT_DOUBLE_EQ(fleet.offered_rate(7, millis(7.5)),
                     2e5 * 0.5 * 4.0);  // diurnal trough, in-flash
    EXPECT_DOUBLE_EQ(fleet.offered_rate(7, millis(10.0)), 2e5);

    fleet.start(millis(20.0));
    backend.queue.run();

    // Expected count = integral of the offered-rate curve (the flash
    // multiplies the diurnal rate, so integrate numerically).
    double expected = 0.0;
    const Time step = micros(10.0);
    for (Time t = 0; t < millis(20.0); t += step) {
        expected += fleet.offered_rate(7, t) * to_seconds(step);
    }
    const auto arrivals =
        static_cast<double>(fleet.stats().at(7).arrivals);
    EXPECT_NEAR(arrivals, expected, expected * 0.05)
        << "Poisson count far outside 5% of the rate integral";
}

TEST(Fleet, CoalescingPiggybacksConcurrentSameKeyArrivals)
{
    const auto run = [](bool coalesce) {
        FakeBackend backend;
        backend.service = micros(50.0);
        serve::FleetConfig config;
        serve::TenantLoad load = poisson_tenant(0, 1e6);
        load.arrivals = serve::ArrivalKind::kDeterministic;
        load.keyspace = 1;  // every arrival hits the same key
        load.window = 1;
        load.coalesce = coalesce;
        config.tenants.push_back(load);
        serve::Fleet fleet(backend.queue, config, backend.make_op(),
                           backend.submit());
        fleet.start(millis(1.0));
        backend.queue.run();
        EXPECT_LE(backend.max_inflight, 1u);  // window respected
        return std::tuple(fleet.stats().at(0), backend.submitted);
    };

    const auto [with, submitted_with] = run(true);
    // One traversal in flight at a time; the ~50 us service time spans
    // ~50 arrivals, which all piggyback on it.
    EXPECT_GT(with.coalesced, 0u);
    EXPECT_EQ(with.issued, submitted_with);
    EXPECT_EQ(with.issued + with.coalesced, with.arrivals);
    EXPECT_EQ(with.completed, with.arrivals);  // every waiter answered

    const auto [without, submitted_without] = run(false);
    EXPECT_EQ(without.coalesced, 0u);
    EXPECT_EQ(without.issued, without.arrivals);
    EXPECT_EQ(without.issued, submitted_without);
    EXPECT_EQ(without.completed, without.arrivals);
}

TEST(Fleet, SeededRunsAreBitReproducible)
{
    const auto digest_of = [](std::uint64_t seed) {
        FakeBackend backend;
        serve::FleetConfig config;
        config.seed = seed;
        config.tenants.push_back(poisson_tenant(0, 1e5));
        config.tenants.push_back(poisson_tenant(1, 3e5));
        serve::Fleet fleet(backend.queue, config, backend.make_op(),
                           backend.submit());
        fleet.start(millis(5.0));
        backend.queue.run();
        return fleet.completion_digest();
    };

    EXPECT_EQ(digest_of(42), digest_of(42));
    EXPECT_NE(digest_of(42), digest_of(43));
}

// --------------------------------------- fleet on the real cluster

ClusterConfig
serving_test_config()
{
    ClusterConfig config;
    config.num_mem_nodes = 1;
    return config;
}

apps::AppScale
small_scale()
{
    apps::AppScale scale;
    scale.upc_keys = 5'000;
    return scale;
}

/** Fleet wiring against a cluster: tenant key -> table lookup, one
 *  offload engine per tenant (tenant id doubles as the client id). */
serve::Fleet::MakeOpFn
table_make_op(apps::UpcApp& app)
{
    return [&app](serve::TenantId, std::uint64_t key) {
        return app.table().make_find(
            workloads::key_of(key % app.num_keys()), nullptr);
    };
}

serve::Fleet::SubmitFn
cluster_submit(Cluster& cluster)
{
    return [&cluster](serve::TenantId tenant,
                      offload::Operation&& op) {
        const ClientId client =
            tenant % cluster.config().num_clients;
        cluster.submitter(SystemKind::kPulse, client)(std::move(op));
    };
}

/**
 * The mid-flash-crowd checkpoint: phase 1 runs into the middle of a
 * flash crowd and quiesces at the horizon; the snapshot (cluster
 * checkpoint + fleet state) forked onto a fresh cluster must continue
 * bit-identically — same arrivals, same completions, same
 * order-sensitive completion digest.
 */
TEST(Fleet, CheckpointMidFlashCrowdRoundTripsBitIdentically)
{
    const Time phase1 = millis(4.0);  // inside the flash window
    const Time phase2 = millis(8.0);

    serve::FleetConfig fleet_config;
    serve::TenantLoad load = poisson_tenant(0, 2e5);
    load.flash_start = millis(2.0);
    load.flash_duration = millis(4.0);
    load.flash_multiplier = 3.0;
    load.keyspace = 256;
    load.window = 16;
    fleet_config.tenants.push_back(load);

    // Original: run phase 1, snapshot at the quiesce point, continue.
    Cluster original(serving_test_config());
    apps::UpcApp app_a(original, small_scale());
    serve::Fleet fleet_a(original.queue(), fleet_config,
                         table_make_op(app_a),
                         cluster_submit(original));
    fleet_a.start(phase1);
    original.queue().run();
    ASSERT_EQ(fleet_a.outstanding(), 0u);
    StateIo save;
    fleet_a.checkpoint(save);
    const std::vector<std::uint8_t> fleet_blob = save.take();
    testing::expect_golden_digest("fleet", fleet_blob);
    const std::vector<std::uint8_t> blob = original.save_checkpoint();
    fleet_a.extend(phase2);
    original.queue().run();

    // Fork: fresh cluster + fleet load the snapshots; same extension.
    Cluster forked(serving_test_config());
    apps::UpcApp app_b(forked, small_scale());
    serve::Fleet fleet_b(forked.queue(), fleet_config,
                         table_make_op(app_b),
                         cluster_submit(forked));
    ASSERT_TRUE(forked.restore_checkpoint(blob, nullptr));
    StateIo restore(fleet_blob);
    fleet_b.checkpoint(restore);
    ASSERT_TRUE(restore.finish()) << restore.error();
    fleet_b.extend(phase2);
    forked.queue().run();

    EXPECT_EQ(fleet_a.completion_digest(),
              fleet_b.completion_digest());
    EXPECT_EQ(fleet_a.stats().at(0).arrivals,
              fleet_b.stats().at(0).arrivals);
    EXPECT_EQ(fleet_a.stats().at(0).completed,
              fleet_b.stats().at(0).completed);
    EXPECT_GT(fleet_b.stats().at(0).completed, 0u);
}

// --------------------------------------------------- QoS admission

TEST(Serving, OffConstructsNothingAndRegistersNoKeys)
{
    Cluster cluster(serving_test_config());
    EXPECT_EQ(cluster.serve_plane(), nullptr);
    trace::MetricsExporter exporter;
    cluster.export_metrics(exporter);
    EXPECT_EQ(exporter.json().find("serve."), std::string::npos);
}

TEST(Serving, OnRegistersCountersAndChargesFreshRootsOnly)
{
    ClusterConfig config = serving_test_config();
    config.serve.on = true;
    Cluster cluster(config);
    ASSERT_NE(cluster.serve_plane(), nullptr);

    apps::UpcApp app(cluster, small_scale());
    serve::TenantLoad load = serve::closed_loop(0, 100, 8);
    serve::run_closed_loop(cluster.queue(),
                    cluster.submitter(SystemKind::kPulse),
                    app.factory(), load);

    // No quota configured: every root admits, and the admitted count
    // is exactly the op count — continuations of a traversal are never
    // re-charged.
    const auto& counters =
        cluster.serve_plane()->tenant_counters().at(0);
    EXPECT_EQ(counters.admitted, 100u);
    EXPECT_EQ(counters.throttled, 0u);
    EXPECT_EQ(counters.shed, 0u);

    trace::MetricsExporter exporter;
    cluster.export_metrics(exporter);
    const std::string json = exporter.json();
    EXPECT_NE(json.find("\"serve.admitted\": 100"), std::string::npos)
        << json;
    EXPECT_NE(json.find("serve.tenant0.admitted"), std::string::npos);
}

TEST(Serving, QuotaThrottlesOverBurstAndReadmitsInOrder)
{
    ClusterConfig config = serving_test_config();
    config.serve.on = true;
    config.serve.tenants.push_back(
        {.id = 0,
         .slo = serve::SloClass::kBatch,
         .quota_ops_per_s = 1e5,
         .quota_burst = 2.0});
    Cluster cluster(config);

    ds::HashTable table(cluster.memory(), cluster.allocator(),
                        ds::HashTableConfig{.num_buckets = 16});
    for (std::uint64_t k = 1; k <= 64; k++) {
        table.insert(k);
    }

    int done = 0;
    int rejected = 0;
    std::vector<Time> latencies;
    for (int i = 0; i < 6; i++) {
        auto op = table.make_find(1 + i % 64, {});
        op.done = [&](offload::Completion&& completion) {
            done++;
            rejected += completion.rejected ? 1 : 0;
            latencies.push_back(completion.latency);
        };
        cluster.submitter(SystemKind::kPulse, 0)(std::move(op));
    }
    cluster.queue().run();

    EXPECT_EQ(done, 6);
    EXPECT_EQ(rejected, 0);  // throttled, not shed: all complete
    const auto& counters =
        cluster.serve_plane()->tenant_counters().at(0);
    EXPECT_EQ(counters.admitted, 6u);   // burst 2 + 4 released
    EXPECT_EQ(counters.throttled, 4u);
    EXPECT_EQ(counters.shed, 0u);
    EXPECT_EQ(cluster.serve_plane()->parked(), 0u);
    // Throttled requests waited for tokens: ~10 us apart at 1e5/s, so
    // the last completion is far beyond the unthrottled ones.
    ASSERT_EQ(latencies.size(), 6u);
    EXPECT_GT(latencies.back(), latencies.front() * 2);
}

TEST(Serving, ParkCapOverflowShedsWithTypedRejection)
{
    ClusterConfig config = serving_test_config();
    config.serve.on = true;
    config.serve.throttle_park_cap = 1;
    config.serve.tenants.push_back(
        {.id = 0,
         .slo = serve::SloClass::kBatch,
         .quota_ops_per_s = 10.0,
         .quota_burst = 1.0});
    Cluster cluster(config);

    ds::HashTable table(cluster.memory(), cluster.allocator(),
                        ds::HashTableConfig{.num_buckets = 16});
    for (std::uint64_t k = 1; k <= 64; k++) {
        table.insert(k);
    }

    int done = 0;
    int rejected = 0;
    for (int i = 0; i < 5; i++) {
        auto op = table.make_find(1 + i % 64, {});
        op.done = [&](offload::Completion&& completion) {
            done++;
            if (completion.rejected) {
                rejected++;
                // Shed rides the driver's retry path: marked like a
                // retransmit give-up, distinguishable by `rejected`.
                EXPECT_TRUE(completion.timed_out);
            }
        };
        cluster.submitter(SystemKind::kPulse, 0)(std::move(op));
    }
    cluster.queue().run();

    // Burst admits 1, the park cap holds 1, the other 3 are shed.
    EXPECT_EQ(done, 5);
    EXPECT_EQ(rejected, 3);
    EXPECT_EQ(cluster.offload_engine(0).rejections_seen(), 3u);
    const auto& counters =
        cluster.serve_plane()->tenant_counters().at(0);
    EXPECT_EQ(counters.admitted, 2u);
    EXPECT_EQ(counters.throttled, 1u);
    EXPECT_EQ(counters.shed, 3u);
}

TEST(Serving, LatencyClassQueueCapShedsUnderFlood)
{
    ClusterConfig config = serving_test_config();
    config.serve.on = true;
    config.serve.latency_queue_cap = 2;
    // Tiny accelerator so the admission queue actually fills.
    config.accel.num_cores = 1;
    config.accel.workspaces_per_logic = 1;
    Cluster cluster(config);

    ds::LinkedList list(cluster.memory(), cluster.allocator());
    std::vector<std::uint64_t> values(256);
    for (std::size_t i = 0; i < values.size(); i++) {
        values[i] = i;
    }
    list.build(values, 0);

    int done = 0;
    int rejected = 0;
    for (int i = 0; i < 16; i++) {
        auto op = list.make_walk(64, {});
        op.done = [&](offload::Completion&& completion) {
            done++;
            rejected += completion.rejected ? 1 : 0;
        };
        cluster.submitter(SystemKind::kPulse, 0)(std::move(op));
    }
    cluster.queue().run();

    const auto& counters =
        cluster.serve_plane()->tenant_counters().at(0);
    EXPECT_EQ(done, 16);
    EXPECT_GT(rejected, 0);
    EXPECT_EQ(counters.shed, static_cast<std::uint64_t>(rejected));
    // Every root passed the (unlimited) quota; the caps shed at the
    // queue, after the admitted count.
    EXPECT_EQ(counters.admitted, 16u);
    EXPECT_EQ(counters.throttled, 0u);
}

/**
 * End to end: the fleet's retry path turns shed completions into
 * backed-off re-issues, so over-quota floods eventually drain without
 * the caller seeing failures (within the retry budget).
 */
TEST(Serving, FleetRetriesShedRequestsWithBackoff)
{
    ClusterConfig config = serving_test_config();
    config.serve.on = true;
    config.serve.throttle_park_cap = 2;
    config.serve.tenants.push_back(
        {.id = 0,
         .slo = serve::SloClass::kBatch,
         .quota_ops_per_s = 2e4,
         .quota_burst = 2.0});
    Cluster cluster(config);
    apps::UpcApp app(cluster, small_scale());

    serve::FleetConfig fleet_config;
    serve::TenantLoad load = poisson_tenant(0, 2e5);  // 10x the quota
    load.arrivals = serve::ArrivalKind::kDeterministic;
    load.coalesce = false;
    load.window = 64;
    load.max_retries = 12;
    load.retry_backoff = micros(200.0);
    load.total_ops = 40;
    fleet_config.tenants.push_back(load);
    serve::Fleet fleet(cluster.queue(), fleet_config,
                       table_make_op(app), cluster_submit(cluster));
    fleet.start(millis(50.0));
    cluster.queue().run();

    const serve::TenantFleetStats& stats = fleet.stats().at(0);
    EXPECT_EQ(stats.arrivals, 40u);
    EXPECT_GT(stats.shed_retries, 0u);  // the flood hit the shed path
    EXPECT_EQ(stats.failed, 0u);        // ...and backoff absorbed it
    EXPECT_EQ(stats.completed, 40u);
    EXPECT_EQ(cluster.serve_plane()->tenant_counters().at(0).shed,
              stats.shed_retries);
}

}  // namespace
}  // namespace pulse
