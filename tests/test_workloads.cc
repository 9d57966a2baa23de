/**
 * @file
 * Unit tests for the workload generators (YCSB-C/E, the uPMU trace and
 * TSV queries) and the closed-loop driver.
 */
#include <gtest/gtest.h>

#include "core/cluster.h"
#include "ds/linked_list.h"
#include "serve/fleet.h"
#include "workloads/workloads.h"

namespace pulse::workloads {
namespace {

TEST(Keys, KeyOfIsStrictlyIncreasingAndBounded)
{
    for (std::uint64_t i = 1; i < 1000; i++) {
        EXPECT_LT(key_of(i - 1), key_of(i));
    }
    EXPECT_LT(key_of(1'000'000'000), ds::kPadKey);
}

TEST(YcsbC, UniformCoversKeySpace)
{
    YcsbC workload(100);
    Rng rng(1);
    std::vector<int> counts(100, 0);
    for (int i = 0; i < 50'000; i++) {
        const std::uint64_t index = workload.next_index(rng);
        ASSERT_LT(index, 100u);
        counts[index]++;
    }
    for (const int count : counts) {
        EXPECT_NEAR(count, 500, 150);
    }
}

TEST(YcsbC, ZipfSkewsPopularity)
{
    YcsbC workload(1000, 0.99);
    Rng rng(2);
    std::vector<int> counts(1000, 0);
    for (int i = 0; i < 100'000; i++) {
        counts[workload.next_index(rng)]++;
    }
    std::sort(counts.begin(), counts.end(), std::greater<>());
    // The most popular key dwarfs the median one.
    EXPECT_GT(counts[0], counts[500] * 10);
}

TEST(YcsbE, ScanBounds)
{
    YcsbE workload(1000, 127);
    Rng rng(3);
    std::uint32_t max_seen = 0;
    std::uint32_t min_seen = 1000;
    double total = 0;
    const int n = 20'000;
    for (int i = 0; i < n; i++) {
        const auto scan = workload.next(rng);
        EXPECT_LT(scan.start_index, 1000u);
        EXPECT_GE(scan.length, 1u);
        EXPECT_LE(scan.length, 127u);
        max_seen = std::max(max_seen, scan.length);
        min_seen = std::min(min_seen, scan.length);
        total += scan.length;
    }
    EXPECT_EQ(min_seen, 1u);
    EXPECT_EQ(max_seen, 127u);
    EXPECT_NEAR(total / n, 64.0, 2.0);  // the paper's ~64 average
}

TEST(PmuTrace, MonotonicFixedRateTimestamps)
{
    PmuTrace trace(10'000);
    const auto& entries = trace.entries();
    ASSERT_EQ(entries.size(), 10'000u);
    for (std::size_t i = 1; i < entries.size(); i++) {
        EXPECT_GT(entries[i].key, entries[i - 1].key);
    }
    // 64 Hz default: ~15.6 ms period.
    const double span = static_cast<double>(trace.last_timestamp() -
                                            trace.first_timestamp());
    EXPECT_NEAR(span / 9999.0, 15.625, 0.1);
}

TEST(PmuTrace, ReadingsLookLikeVoltage)
{
    PmuTrace trace(50'000);
    for (const auto& entry : trace.entries()) {
        const auto mv = static_cast<std::int64_t>(entry.payload);
        EXPECT_GT(mv, 6'900'000);  // 6.9 kV
        EXPECT_LT(mv, 7'500'000);  // 7.5 kV
    }
}

TEST(TsvQueries, WindowsInsideTrace)
{
    PmuTrace trace(100'000);
    TsvQueries queries(trace, 30.0);
    Rng rng(4);
    bool saw_sum = false;
    bool saw_min = false;
    bool saw_max = false;
    for (int i = 0; i < 5000; i++) {
        const auto query = queries.next(rng);
        EXPECT_GE(query.lo, trace.first_timestamp());
        EXPECT_LE(query.hi, trace.last_timestamp());
        EXPECT_EQ(query.hi - query.lo, 30'000u);
        saw_sum |= query.kind == ds::AggKind::kSum;
        saw_min |= query.kind == ds::AggKind::kMin;
        saw_max |= query.kind == ds::AggKind::kMax;
    }
    EXPECT_TRUE(saw_sum && saw_min && saw_max);
}

// ------------------------------------------------------------ driver

struct DriverFixture : ::testing::Test
{
    DriverFixture() : cluster(core::ClusterConfig{})
    {
        list = std::make_unique<ds::LinkedList>(cluster.memory(),
                                                cluster.allocator());
        std::vector<std::uint64_t> values(32);
        for (std::size_t i = 0; i < values.size(); i++) {
            values[i] = i;
        }
        list->build(values, 0);
    }

    core::Cluster cluster;
    std::unique_ptr<ds::LinkedList> list;
};

TEST_F(DriverFixture, CountsAndThroughput)
{
    serve::TenantLoad load = serve::closed_loop(10, 50, 4);
    bool measure_hook_fired = false;
    load.on_measure_start = [&] { measure_hook_fired = true; };
    const auto result = serve::run_closed_loop(
        cluster.queue(), cluster.submitter(core::SystemKind::kPulse),
        [&](std::uint64_t) { return list->make_find(31, {}); },
        load);
    EXPECT_TRUE(measure_hook_fired);
    EXPECT_EQ(result.completed, 50u);
    EXPECT_EQ(result.errors, 0u);
    EXPECT_EQ(result.latency.count(), 50u);
    EXPECT_GT(result.throughput(), 0.0);
    EXPECT_EQ(result.iterations, 50u * 32u);
}

TEST_F(DriverFixture, ZeroWarmupMeasuresEverything)
{
    serve::TenantLoad load = serve::closed_loop(0, 20, 1);
    const auto result = serve::run_closed_loop(
        cluster.queue(), cluster.submitter(core::SystemKind::kPulse),
        [&](std::uint64_t) { return list->make_find(5, {}); }, load);
    EXPECT_EQ(result.completed, 20u);
}

TEST_F(DriverFixture, ErrorsAreCounted)
{
    // Point every op at an unmapped address.
    serve::TenantLoad load = serve::closed_loop(0, 10, 2);
    const auto result = serve::run_closed_loop(
        cluster.queue(), cluster.submitter(core::SystemKind::kPulse),
        [&](std::uint64_t) {
            auto op = list->make_find(5, {});
            op.start_ptr = 0xDEAD0000;
            return op;
        },
        load);
    EXPECT_EQ(result.completed, 10u);
    EXPECT_EQ(result.errors, 10u);
}

TEST_F(DriverFixture, HigherConcurrencyNotSlower)
{
    const auto run = [&](std::uint32_t concurrency) {
        serve::TenantLoad load = serve::closed_loop(8, 64, concurrency);
        return serve::run_closed_loop(
                   cluster.queue(),
                   cluster.submitter(core::SystemKind::kPulse),
                   [&](std::uint64_t) {
                       return list->make_find(31, {});
                   },
                   load)
            .throughput();
    };
    const double serial = run(1);
    const double parallel = run(16);
    EXPECT_GT(parallel, serial * 2);
}

}  // namespace
}  // namespace pulse::workloads
