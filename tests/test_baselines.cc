/**
 * @file
 * Unit tests for the baseline systems: the page cache, the Cache-based
 * client, the RPC runtime (worker pools, bounces, TCP factor), their
 * shared fork/join outcome mapping and the AIFM-style object cache.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/page_cache.h"
#include "core/cluster.h"
#include "ds/hash_table.h"
#include "ds/linked_list.h"
#include "serve/fleet.h"

namespace pulse::baselines {
namespace {

using isa::TraversalStatus;

// -------------------------------------------------------- page cache

TEST(PageCache, LruEviction)
{
    PageCache cache(3 * 4096);
    cache.fill(0x0000, 4096);
    cache.fill(0x1000, 4096);
    cache.fill(0x2000, 4096);
    EXPECT_EQ(cache.resident(), 3u);  // three pages fit the budget
    EXPECT_EQ(cache.stats().evictions.value(), 0u);
    EXPECT_TRUE(cache.access(0x0000));  // refresh page 0
    cache.fill(0x3000, 4096);           // evicts LRU = page 1
    EXPECT_TRUE(cache.access(0x0000));
    EXPECT_FALSE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x2000));
    EXPECT_TRUE(cache.access(0x3000));
    EXPECT_EQ(cache.stats().evictions.value(), 1u);
}

TEST(PageCache, PageAlignment)
{
    PageCache cache(16 * 4096);
    cache.fill(page_of(0x1234, 4096), 4096);  // fills page 0x1000
    EXPECT_TRUE(cache.access(page_of(0x1FFF, 4096)));
    EXPECT_FALSE(cache.access(page_of(0x2000, 4096)));
    EXPECT_EQ(page_of(0x1FFF, 4096), 0x1000u);
}

TEST(PageCache, RedundantFillIsNoop)
{
    PageCache cache(2 * 4096);
    cache.fill(page_of(0x1000, 4096), 4096);
    cache.fill(page_of(0x1100, 4096), 4096);  // same page
    EXPECT_EQ(cache.resident(), 1u);
}

TEST(PageCache, StatsAndClear)
{
    PageCache cache(2 * 4096);
    cache.fill(0x0, 4096);
    cache.access(0x0);
    cache.access(0x5000);
    EXPECT_EQ(cache.stats().hits.value(), 1u);
    EXPECT_EQ(cache.stats().misses.value(), 1u);
    cache.clear();
    EXPECT_EQ(cache.resident(), 0u);
    cache.reset_stats();
    EXPECT_EQ(cache.stats().hits.value(), 0u);
    // clear() also empties the byte budget: two pages fit again.
    cache.fill(0x1000, 4096);
    cache.fill(0x2000, 4096);
    EXPECT_EQ(cache.stats().evictions.value(), 0u);
}

TEST(PageCache, FixedSizeEntriesEvictAtTheOldPageCount)
{
    // A budget that is not a page multiple holds floor(budget / page)
    // pages: every fill past that count evicts exactly one page.
    PageCache cache(5 * 4096 + 100);
    for (std::uint64_t page = 0; page < 12; page++) {
        cache.fill(page * 4096, 4096);
        EXPECT_EQ(cache.stats().evictions.value(),
                  page < 5 ? std::uint64_t{0} : page - 4);
        EXPECT_EQ(cache.resident(), std::min<std::size_t>(page + 1, 5));
    }
}

TEST(PageCache, VariableSizesEvictUntilTheEntryFits)
{
    PageCache cache(1000);
    cache.fill(1, 400);
    cache.fill(2, 400);
    cache.fill(3, 400);  // 1200 > 1000: evicts key 1
    EXPECT_FALSE(cache.access(1));
    EXPECT_EQ(cache.resident(), 2u);
    EXPECT_TRUE(cache.access(2));  // key 3 is now the LRU entry
    cache.fill(4, 500);            // 1300 > 1000: evicts key 3 only
    EXPECT_FALSE(cache.access(3));
    EXPECT_TRUE(cache.access(2));
    cache.fill(5, 700);  // evicts keys 4 and 2 (LRU first)
    EXPECT_EQ(cache.stats().evictions.value(), 4u);
    EXPECT_EQ(cache.resident(), 1u);
    cache.fill(6, 2000);  // larger than the budget: evicts all, installs
    EXPECT_EQ(cache.resident(), 1u);
    EXPECT_TRUE(cache.access(6));
}

// ------------------------------------------------------ cache client

TEST(CacheClient, WarmRunsAvoidFaults)
{
    core::ClusterConfig config;
    config.cache.cache_bytes = 8 * kMiB;
    core::Cluster cluster(config);
    ds::LinkedList list(cluster.memory(), cluster.allocator());
    std::vector<std::uint64_t> values(100);
    for (std::size_t i = 0; i < values.size(); i++) {
        values[i] = i;
    }
    list.build(values, 0);

    auto run_find = [&](std::uint64_t value) {
        offload::Completion result;
        auto op = list.make_find(value, {});
        op.done = [&](offload::Completion&& completion) {
            result = std::move(completion);
        };
        cluster.cache_client().submit(std::move(op));
        cluster.queue().run();
        return result;
    };

    const auto cold = run_find(99);
    const std::uint64_t cold_faults =
        cluster.cache_client().stats().faults.value();
    EXPECT_GT(cold_faults, 0u);
    const auto warm = run_find(99);
    EXPECT_EQ(cluster.cache_client().stats().faults.value(),
              cold_faults);
    // Warm run: pure hit-path latency (100 hits x ~80 ns) -- no
    // faults, so at least the two cold fault round-trips are gone.
    EXPECT_LT(warm.latency, cold.latency / 2);
    EXPECT_LT(warm.latency, micros(15.0));
    EXPECT_EQ(warm.iterations, cold.iterations);
}

TEST(CacheClient, FaultHandlersBoundConcurrency)
{
    // With one fault handler, concurrent misses serialize; with many
    // they overlap. Compare makespans for 8 parallel single-fault ops.
    const auto run = [](std::uint32_t handlers) {
        core::ClusterConfig config;
        config.cache.fault_handlers = handlers;
        config.cache.cache_bytes = 256 * kKiB;
        core::Cluster cluster(config);
        ds::LinkedList list(cluster.memory(), cluster.allocator());
        // Nodes page-aligned apart: every find(1 hop) is 1 fault.
        std::vector<std::uint64_t> values(8);
        for (std::size_t i = 0; i < values.size(); i++) {
            values[i] = i;
            list.build({i}, 0);
        }
        serve::TenantLoad load = serve::closed_loop(0, 8, 8);
        Rng rng(1);
        auto result = serve::run_closed_loop(
            cluster.queue(),
            cluster.submitter(core::SystemKind::kCache),
            [&](std::uint64_t i) {
                return list.make_find(i % 8, {});
            },
            load);
        return result.measure_time;
    };
    EXPECT_GT(run(1), run(8));
}

TEST(CacheClient, UnmappedPointerFaults)
{
    core::ClusterConfig config;
    core::Cluster cluster(config);
    ds::LinkedList list(cluster.memory(), cluster.allocator());
    list.build({1}, 0);
    cluster.memory().write_as<std::uint64_t>(list.head() + 8,
                                             0xBAD000ull);
    offload::Completion result;
    auto op = list.make_find(2, {});
    op.done = [&](offload::Completion&& completion) {
        result = std::move(completion);
    };
    cluster.cache_client().submit(std::move(op));
    cluster.queue().run();
    EXPECT_EQ(result.status, TraversalStatus::kMemFault);
}

TEST(CacheClient, StoresLandAtTheNodeTheIterationLoaded)
{
    // Each iteration stamps 42 into word 1 of the node it loaded and
    // then moves cur_ptr on; the STORE's offset is relative to the
    // pointer it loaded from, on the cache client as on the RPC
    // workers.
    isa::ProgramBuilder b;
    b.load(16)
        .move(isa::dat(8), isa::imm(42))
        .store(8, 8, 8)
        .compare(isa::dat(0), isa::imm(0))
        .jump_eq("done")
        .move(isa::cur(), isa::dat(0))
        .next_iter()
        .label("done")
        .ret();
    const auto program = std::make_shared<const isa::Program>(b.build());
    core::ClusterConfig config;
    core::Cluster cluster(config);
    const VirtAddr first = cluster.allocator().alloc_on(0, 16, 64);
    const VirtAddr second = cluster.allocator().alloc_on(0, 16, 64);
    const auto run = [&](auto& system) {
        cluster.memory().write_as<std::uint64_t>(first, second);
        cluster.memory().write_as<std::uint64_t>(first + 8, 1);
        cluster.memory().write_as<std::uint64_t>(second, 0);
        cluster.memory().write_as<std::uint64_t>(second + 8, 2);
        offload::Operation op;
        op.program = program;
        op.start_ptr = first;
        offload::Completion result;
        op.done = [&](offload::Completion&& completion) {
            result = std::move(completion);
        };
        system.submit(std::move(op));
        cluster.queue().run();
        EXPECT_EQ(result.status, TraversalStatus::kDone);
        EXPECT_EQ(result.iterations, 2u);
        EXPECT_EQ(cluster.memory().read_as<std::uint64_t>(first + 8), 42u);
        EXPECT_EQ(cluster.memory().read_as<std::uint64_t>(second + 8),
                  42u);
    };
    run(cluster.cache_client());
    run(cluster.rpc());
}

// ------------------------------------ fork/join outcome parity

/**
 * Fold data[8] into a one-lane accumulator, SPAWN at data[0] (a null
 * pointer spawns nothing) and JOIN.
 */
std::shared_ptr<const isa::Program>
forking_program()
{
    isa::ProgramBuilder b;
    b.load(16)
        .reduce(isa::ReduceOp::kAdd, 8, 1)
        .add(isa::sp(8), isa::sp(8), isa::dat(8))
        .spawn(isa::dat(0), 0, 8)
        .join();
    b.scratch_bytes(32);
    b.max_spawn_depth(1);
    return std::make_shared<const isa::Program>(b.build());
}

TEST(CacheClient, ForkingProgramEndsAsOnRpc)
{
    // Neither baseline has a fork coordinator: a SPAWN that fires is an
    // illegal instruction, and a JOIN that spawned nothing completes
    // like RETURN, on the Cache client as on the RPC runtime.
    core::ClusterConfig config;
    core::Cluster cluster(config);
    const VirtAddr child = cluster.allocator().alloc_on(0, 16, 64);
    const VirtAddr parent = cluster.allocator().alloc_on(0, 16, 64);
    cluster.memory().write_as<std::uint64_t>(parent, child);
    cluster.memory().write_as<std::uint64_t>(parent + 8, 5);
    cluster.memory().write_as<std::uint64_t>(child, 0);
    cluster.memory().write_as<std::uint64_t>(child + 8, 7);
    const auto program = forking_program();
    const auto run = [&](auto& system, VirtAddr start) {
        offload::Completion result;
        bool done = false;
        offload::Operation op;
        op.program = program;
        op.start_ptr = start;
        op.done = [&](offload::Completion&& completion) {
            result = std::move(completion);
            done = true;
        };
        system.submit(std::move(op));
        cluster.queue().run();
        EXPECT_TRUE(done);
        return result;
    };

    const offload::Completion cache_fork =
        run(cluster.cache_client(), parent);
    const offload::Completion rpc_fork = run(cluster.rpc(), parent);
    EXPECT_EQ(rpc_fork.status, TraversalStatus::kExecFault);
    EXPECT_EQ(rpc_fork.fault, isa::ExecFault::kIllegalInstruction);
    EXPECT_EQ(cache_fork.status, rpc_fork.status);
    EXPECT_EQ(cache_fork.fault, rpc_fork.fault);

    const offload::Completion cache_leaf =
        run(cluster.cache_client(), child);
    const offload::Completion rpc_leaf = run(cluster.rpc(), child);
    EXPECT_EQ(rpc_leaf.status, TraversalStatus::kDone);
    EXPECT_EQ(rpc_leaf.fault, isa::ExecFault::kNone);
    EXPECT_EQ(cache_leaf.status, rpc_leaf.status);
    EXPECT_EQ(cache_leaf.fault, rpc_leaf.fault);
}

// -------------------------------------------------------------- rpc

TEST(RpcRuntime, WorkersParallelizeThroughput)
{
    const auto run = [](std::uint32_t workers) {
        core::ClusterConfig config;
        config.rpc.workers_per_node = workers;
        core::Cluster cluster(config);
        ds::HashTable table(cluster.memory(), cluster.allocator(),
                            ds::HashTableConfig{.num_buckets = 32});
        for (std::uint64_t k = 1; k <= 512; k++) {
            table.insert(k);
        }
        Rng rng(3);
        serve::TenantLoad load = serve::closed_loop(32, 400, 64);
        auto result = serve::run_closed_loop(
            cluster.queue(), cluster.submitter(core::SystemKind::kRpc),
            [&](std::uint64_t) {
                return table.make_find(1 + rng.next_below(512), {});
            },
            load);
        return result.throughput();
    };
    const double one = run(1);
    const double four = run(4);
    EXPECT_GT(four, one * 3.0);
}

TEST(RpcRuntime, BusyTimeTracksWork)
{
    core::ClusterConfig config;
    core::Cluster cluster(config);
    ds::LinkedList list(cluster.memory(), cluster.allocator());
    std::vector<std::uint64_t> values(50);
    for (std::size_t i = 0; i < values.size(); i++) {
        values[i] = i;
    }
    list.build(values, 0);
    offload::Completion result;
    auto op = list.make_find(49, {});
    op.done = [&](offload::Completion&& completion) {
        result = std::move(completion);
    };
    cluster.rpc().submit(std::move(op));
    cluster.queue().run();
    EXPECT_EQ(result.status, TraversalStatus::kDone);
    // Busy >= 50 iterations x dram latency.
    EXPECT_GE(cluster.rpc().stats().worker_busy_time.sum(),
              50.0 * static_cast<double>(nanos(100.0)));
    EXPECT_EQ(cluster.rpc().stats().iterations.value(), 50u);
}

TEST(RpcRuntime, TcpTransportSlowerThanErpc)
{
    core::ClusterConfig config;
    core::Cluster cluster(config);
    ds::HashTable table(cluster.memory(), cluster.allocator(),
                        ds::HashTableConfig{.num_buckets = 16});
    for (std::uint64_t k = 1; k <= 64; k++) {
        table.insert(k);
    }
    const auto run = [&](baselines::RpcRuntime& rpc) {
        offload::Completion result;
        auto op = table.make_find(7, {});
        op.done = [&](offload::Completion&& completion) {
            result = std::move(completion);
        };
        rpc.submit(std::move(op));
        cluster.queue().run();
        return result.latency;
    };
    const Time erpc = run(cluster.rpc());
    const Time tcp = run(cluster.rpc_tcp());
    EXPECT_GT(tcp, erpc);
}

TEST(RpcRuntime, QuenchedTimersLeaveTheQueue)
{
    // Every leg arms a 20 ms retransmit timer (the default); the
    // response cancels it, dropping the timer's reference to the
    // operation's state, so the queue holds only the legs in flight.
    constexpr std::uint32_t kConcurrency = 32;
    core::ClusterConfig config;
    core::Cluster cluster(config);
    ds::HashTable table(cluster.memory(), cluster.allocator(),
                        ds::HashTableConfig{.num_buckets = 32});
    for (std::uint64_t k = 1; k <= 512; k++) {
        table.insert(k);
    }
    serve::TenantLoad load = serve::closed_loop(0, 2000, kConcurrency);
    const serve::TenantFleetStats result = serve::run_closed_loop(
        cluster.queue(), cluster.submitter(core::SystemKind::kRpc),
        [&](std::uint64_t i) { return table.make_find(1 + i % 512, {}); },
        load);
    EXPECT_EQ(result.completed, 2000u);
    EXPECT_EQ(result.errors, 0u);
    EXPECT_EQ(cluster.rpc().stats().retransmits.value(), 0u);
    EXPECT_LE(cluster.queue().peak_pending(), 2 * kConcurrency + 16);
}

TEST(RpcRuntime, RecoversFromLossWithTheDefaultConfig)
{
    // Reliable delivery is always on: a lost request or response is
    // retransmitted after the default timeout instead of leaving the
    // operation hanging.
    core::ClusterConfig config;
    config.faults.links.loss = 0.05;
    core::Cluster cluster(config);
    ds::LinkedList list(cluster.memory(), cluster.allocator());
    list.build({1, 2, 3, 4}, 0);
    const int n = 40;
    int done = 0;
    for (int i = 0; i < n; i++) {
        auto op = list.make_find(4, {});
        op.done = [&](offload::Completion&& completion) {
            EXPECT_EQ(completion.status, TraversalStatus::kDone);
            EXPECT_FALSE(completion.timed_out);
            done++;
        };
        cluster.rpc().submit(std::move(op));
    }
    cluster.queue().run();
    EXPECT_EQ(done, n);
    EXPECT_GT(cluster.rpc().stats().retransmits.value(), 0u);
    EXPECT_EQ(cluster.rpc().inflight(), 0u);
}

// -------------------------------------------------------------- aifm

TEST(Aifm, EvictsByBytes)
{
    core::ClusterConfig config;
    config.aifm.cache_bytes = 1024;  // 4 x 256 B objects
    core::Cluster cluster(config);
    ds::HashTable table(cluster.memory(), cluster.allocator(),
                        ds::HashTableConfig{.num_buckets = 8});
    for (std::uint64_t k = 1; k <= 16; k++) {
        table.insert(k);
    }
    auto run = [&](std::uint64_t key) {
        auto op = table.make_find(key, {});
        op.object_id = key;
        op.object_bytes = 256;
        op.done = nullptr;
        cluster.aifm().submit(std::move(op));
        cluster.queue().run();
    };
    for (std::uint64_t k = 1; k <= 6; k++) {
        run(k);  // 6 objects through a 4-object cache
    }
    const PageCache::Stats& cache = cluster.aifm().cache().stats();
    EXPECT_EQ(cache.evictions.value(), 2u);
    run(6);  // most recent: still cached
    EXPECT_EQ(cache.hits.value(), 1u);
    run(1);  // evicted long ago
    EXPECT_EQ(cache.misses.value(), 7u);
}

TEST(Aifm, UncacheableOpsBypassTheCache)
{
    core::ClusterConfig config;
    core::Cluster cluster(config);
    ds::HashTable table(cluster.memory(), cluster.allocator(),
                        ds::HashTableConfig{.num_buckets = 8});
    table.insert(5);
    for (int i = 0; i < 3; i++) {
        auto op = table.make_find(5, {});
        op.object_bytes = 0;  // not cacheable
        op.done = nullptr;
        cluster.aifm().submit(std::move(op));
        cluster.queue().run();
    }
    EXPECT_EQ(cluster.aifm().cache().stats().hits.value(), 0u);
    EXPECT_EQ(cluster.aifm().cache().stats().misses.value(), 0u);
    EXPECT_EQ(cluster.aifm().stats().operations.value(), 3u);
}

}  // namespace
}  // namespace pulse::baselines
