/**
 * @file
 * Unit tests for the discrete-event simulation core.
 */
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "sim/event_queue.h"

namespace pulse::sim {
namespace {

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue queue;
    std::vector<int> order;
    queue.schedule_at(30, [&] { order.push_back(3); });
    queue.schedule_at(10, [&] { order.push_back(1); });
    queue.schedule_at(20, [&] { order.push_back(2); });
    queue.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(queue.now(), 30);
}

TEST(EventQueue, FifoTiebreakAtEqualTimes)
{
    EventQueue queue;
    std::vector<int> order;
    for (int i = 0; i < 8; i++) {
        queue.schedule_at(100, [&order, i] { order.push_back(i); });
    }
    queue.run();
    for (int i = 0; i < 8; i++) {
        EXPECT_EQ(order[i], i);
    }
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime)
{
    EventQueue queue;
    Time fired_at = -1;
    queue.schedule_at(50, [&] {
        queue.schedule_after(25, [&] { fired_at = queue.now(); });
    });
    queue.run();
    EXPECT_EQ(fired_at, 75);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue queue;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 100) {
            queue.schedule_after(1, chain);
        }
    };
    queue.schedule_at(0, chain);
    const std::uint64_t executed = queue.run();
    EXPECT_EQ(depth, 100);
    EXPECT_EQ(executed, 100u);
    EXPECT_EQ(queue.now(), 99);
}

TEST(EventQueue, RunUntilStopsAtDeadline)
{
    EventQueue queue;
    int fired = 0;
    for (Time t = 10; t <= 100; t += 10) {
        queue.schedule_at(t, [&] { fired++; });
    }
    queue.run_until(50);
    EXPECT_EQ(fired, 5);  // 10..50 inclusive
    EXPECT_EQ(queue.now(), 50);
    EXPECT_EQ(queue.pending(), 5u);
    queue.run();
    EXPECT_EQ(fired, 10);
}

TEST(EventQueue, RunUntilAdvancesClockWhenIdle)
{
    EventQueue queue;
    queue.run_until(12345);
    EXPECT_EQ(queue.now(), 12345);
}

TEST(EventQueue, RunUntilAdvancesClockOnEarlyDrain)
{
    // Regression for the run_until clock contract: when the queue
    // drains before the deadline, the clock must still land exactly on
    // the deadline — a fixed measurement window always advances time
    // by its full span, and follow-up relative scheduling anchors at
    // the window end rather than at the last executed event.
    EventQueue queue;
    int fired = 0;
    queue.schedule_at(10, [&] { fired++; });
    queue.schedule_at(30, [&] { fired++; });
    EXPECT_EQ(queue.run_until(1000), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.now(), 1000);

    Time anchored_at = -1;
    queue.schedule_after(5, [&] { anchored_at = queue.now(); });
    queue.run();
    EXPECT_EQ(anchored_at, 1005);

    // Back-to-back windows each span their full width.
    queue.run_until(2000);
    queue.run_until(3000);
    EXPECT_EQ(queue.now(), 3000);
}

TEST(EventQueue, RunWhilePendingStopsOnPredicate)
{
    EventQueue queue;
    int count = 0;
    for (int i = 0; i < 10; i++) {
        queue.schedule_at(i, [&] { count++; });
    }
    const bool met =
        queue.run_while_pending([&] { return count >= 4; });
    EXPECT_TRUE(met);
    EXPECT_EQ(count, 4);
    // Predicate never met: drains and reports false.
    const bool never =
        queue.run_while_pending([&] { return count >= 100; });
    EXPECT_FALSE(never);
    EXPECT_EQ(count, 10);
}

TEST(EventQueue, StepReturnsFalseWhenEmpty)
{
    EventQueue queue;
    EXPECT_FALSE(queue.step());
    EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, TelemetryCountsScheduledAndExecuted)
{
    EventQueue queue;
    EXPECT_EQ(queue.events_scheduled(), 0u);
    EXPECT_EQ(queue.events_executed(), 0u);
    for (int i = 0; i < 5; i++) {
        queue.schedule_at(i, [] {});
    }
    EXPECT_EQ(queue.events_scheduled(), 5u);
    EXPECT_EQ(queue.peak_pending(), 5u);
    queue.run();
    EXPECT_EQ(queue.events_executed(), 5u);
    EXPECT_EQ(queue.peak_pending(), 5u);  // high-water, not current
}

TEST(EventQueue, PoolSlotsConvergeUnderSteadyState)
{
    // The slot pool grows to the peak number of simultaneously
    // pending events and then recycles: a long self-rescheduling
    // chain must not grow the pool beyond its initial burst.
    EventQueue queue;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 1000) {
            queue.schedule_after(1, chain);
        }
    };
    queue.schedule_at(0, chain);
    queue.run();
    EXPECT_EQ(depth, 1000);
    EXPECT_EQ(queue.peak_pending(), 1u);
    EXPECT_EQ(queue.pool_slots(), queue.peak_pending());
}

TEST(EventQueue, CallbackMayScheduleWhileItsSlotRecycles)
{
    // step() frees the slot before invoking the callback, so the
    // running callback's own slot may be handed to what it schedules.
    // The callback's captures must survive that reuse (they were
    // moved out of the pool first).
    EventQueue queue;
    std::vector<int> order;
    std::vector<std::uint64_t> payload(8, 42);
    queue.schedule_at(10, [&queue, &order, payload] {
        // Schedule two events from inside an executing event; one of
        // them likely lands in this event's just-freed slot.
        queue.schedule_after(5, [&order] { order.push_back(2); });
        queue.schedule_after(1, [&order] { order.push_back(1); });
        // Captures still intact after the schedule calls:
        order.push_back(static_cast<int>(payload[7]) - 42);
    });
    queue.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, MoveOnlyCaptures)
{
    // EventFn is move-only, so events can own their payloads —
    // std::function would reject this capture outright.
    EventQueue queue;
    auto owned = std::make_unique<int>(9);
    int result = 0;
    queue.schedule_at(3, [owned = std::move(owned), &result] {
        result = *owned;
    });
    queue.run();
    EXPECT_EQ(result, 9);
}

TEST(EventQueueDeath, SchedulingIntoThePastPanics)
{
    EventQueue queue;
    queue.schedule_at(100, [] {});
    queue.run();
    EXPECT_DEATH(queue.schedule_at(50, [] {}), "past");
}

// ---- Same-timestamp coalescing (docs/PERF.md) -----------------------

TEST(EventQueueCoalescing, ChainsPreserveFifoOrder)
{
    EventQueue queue;
    queue.set_coalescing(true);
    std::vector<int> order;
    // Interleave two timestamps so chains grow out of arrival order.
    for (int i = 0; i < 16; i++) {
        const Time when = (i % 2 == 0) ? 100 : 200;
        queue.schedule_at(when, [&order, i] { order.push_back(i); });
    }
    queue.run();
    ASSERT_EQ(order.size(), 16u);
    // All evens (t=100) in arrival order, then all odds (t=200).
    for (int i = 0; i < 8; i++) {
        EXPECT_EQ(order[i], 2 * i);
        EXPECT_EQ(order[8 + i], 2 * i + 1);
    }
    EXPECT_GT(queue.events_coalesced(), 0u);
    EXPECT_GT(queue.batches_drained(), 0u);
}

TEST(EventQueueCoalescing, ManyTimestampsEvictTheCacheSafely)
{
    // More live timestamps than the direct-mapped chain cache has
    // slots: evicted timestamps fall back to plain heap entries, and
    // order is still globally correct.
    EventQueue queue;
    queue.set_coalescing(true);
    std::vector<Time> fired;
    for (int pass = 0; pass < 2; pass++) {
        for (Time t = 1; t <= 300; t++) {
            queue.schedule_at(t, [&fired, t] { fired.push_back(t); });
        }
    }
    queue.run();
    ASSERT_EQ(fired.size(), 600u);
    for (std::size_t i = 0; i + 1 < fired.size(); i++) {
        EXPECT_LE(fired[i], fired[i + 1]);
    }
}

TEST(EventQueueCoalescing, SchedulingDuringDrainJoinsTheChain)
{
    // An event scheduled *at the current timestamp while its chain is
    // draining* must still run within this drain, in FIFO position.
    EventQueue queue;
    queue.set_coalescing(true);
    std::vector<int> order;
    queue.schedule_at(10, [&] {
        order.push_back(0);
        queue.schedule_after(0, [&order] { order.push_back(2); });
    });
    queue.schedule_at(10, [&order] { order.push_back(1); });
    queue.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(queue.now(), 10);
}

TEST(EventQueueCoalescing, OffKnobExecutesIdentically)
{
    const auto run_once = [](bool coalesce) {
        EventQueue queue;
        queue.set_coalescing(coalesce);
        std::vector<int> order;
        for (int i = 0; i < 32; i++) {
            queue.schedule_at((i % 4) * 10,
                              [&order, i] { order.push_back(i); });
        }
        queue.run();
        return std::make_tuple(order, queue.now(),
                               queue.events_executed());
    };
    EXPECT_EQ(run_once(true), run_once(false));
}

TEST(EventQueueCoalescing, RunUntilRespectsChainedDeadline)
{
    EventQueue queue;
    queue.set_coalescing(true);
    int before = 0;
    int after = 0;
    for (int i = 0; i < 4; i++) {
        queue.schedule_at(50, [&before] { before++; });
        queue.schedule_at(150, [&after] { after++; });
    }
    queue.run_until(100);
    EXPECT_EQ(before, 4);
    EXPECT_EQ(after, 0);
    EXPECT_EQ(queue.now(), 100);
    queue.run();
    EXPECT_EQ(after, 4);
}

TEST(EventQueueCoalescing, CountersTrackChainedEvents)
{
    EventQueue queue;
    queue.set_coalescing(true);
    for (int i = 0; i < 10; i++) {
        queue.schedule_at(7, [] {});
    }
    queue.run();
    // One heap pop drained all ten: nine rode along a chain.
    EXPECT_EQ(queue.events_executed(), 10u);
    EXPECT_EQ(queue.events_coalesced(), 9u);
    EXPECT_EQ(queue.batches_drained(), 1u);
}

// ------------------------------------------- heap differential test

/** An executed event: its timestamp and its scheduling sequence. */
using Fired = std::pair<Time, std::uint64_t>;

std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

constexpr std::uint64_t kSeedEvents = 20'000;
constexpr std::uint64_t kTotalEvents = 150'000;

/** Seed events land on 64 timestamps, so most share one with others. */
Time
seed_time(std::uint64_t i)
{
    return static_cast<Time>(mix(i) % 64) * 1000;
}

/**
 * The workload both queues run: event @p seq, firing at @p now,
 * schedules 0-2 children at now + {0, 500, 1000, 1500} until
 * kTotalEvents have been scheduled. Zero delays land on the timestamp
 * being drained, the case coalescing must order behind the chain.
 */
template <typename Schedule>
void
spawn_children(std::uint64_t seq, Time now, std::uint64_t scheduled,
               const Schedule& schedule)
{
    const std::uint64_t h = mix(seq ^ 0x5bd1e995u);
    const std::uint64_t children = h % 3;
    for (std::uint64_t k = 0;
         k < children && scheduled + k < kTotalEvents; k++) {
        schedule(now + static_cast<Time>((h >> (8 + 2 * k)) % 4) * 500);
    }
}

/** The same workload on std::priority_queue, ordered by (when, seq). */
std::vector<Fired>
reference_order()
{
    std::priority_queue<Fired, std::vector<Fired>, std::greater<Fired>>
        heap;
    std::uint64_t next = 0;
    const auto schedule = [&](Time when) { heap.push({when, next++}); };
    for (std::uint64_t i = 0; i < kSeedEvents; i++) {
        schedule(seed_time(i));
    }
    std::vector<Fired> order;
    while (!heap.empty()) {
        const Fired event = heap.top();
        heap.pop();
        order.push_back(event);
        spawn_children(event.second, event.first, next, schedule);
    }
    return order;
}

struct DifferentialRun
{
    EventQueue queue;
    std::vector<Fired> order;

    void
    schedule(Time when)
    {
        const std::uint64_t seq = queue.events_scheduled();
        queue.schedule_at(when, [this, seq] { fire(seq); });
    }

    void
    fire(std::uint64_t seq)
    {
        order.push_back({queue.now(), seq});
        spawn_children(seq, queue.now(), queue.events_scheduled(),
                       [this](Time when) { schedule(when); });
    }
};

TEST(EventQueueHeap, MatchesPriorityQueueReferenceOrder)
{
    const std::vector<Fired> expected = reference_order();
    ASSERT_GE(expected.size(), 100'000u);
    for (const bool coalesce : {true, false}) {
        auto run = std::make_unique<DifferentialRun>();
        run->queue.set_coalescing(coalesce);
        for (std::uint64_t i = 0; i < kSeedEvents; i++) {
            run->schedule(seed_time(i));
        }
        run->queue.run();
        EXPECT_EQ(run->order, expected) << "coalescing " << coalesce;
        EXPECT_EQ(run->queue.events_executed(), expected.size());
        if (coalesce) {
            EXPECT_GT(run->queue.events_coalesced(), 0u);
        }
    }
}

}  // namespace
}  // namespace pulse::sim
