/**
 * @file
 * End-to-end integration tests: operations submitted through the full
 * simulated rack (offload engine -> NIC -> switch -> accelerator ->
 * response, and each baseline's path) must return correct results with
 * sane timing, including multi-node traversals continued in-network.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/cluster.h"
#include "ds/bptree.h"
#include "ds/hash_table.h"
#include "ds/linked_list.h"
#include "serve/fleet.h"

namespace pulse::core {
namespace {

using baselines::CacheClientConfig;
using ds::kKeyNotFound;
using isa::TraversalStatus;

/** Submit one op and run the queue until its completion arrives. */
offload::Completion
run_one(Cluster& cluster, SystemKind kind, offload::Operation op)
{
    offload::Completion result;
    bool done = false;
    op.done = [&](offload::Completion&& completion) {
        result = std::move(completion);
        done = true;
    };
    cluster.submitter(kind)(std::move(op));
    cluster.queue().run();
    EXPECT_TRUE(done) << "no completion for " << system_name(kind);
    return result;
}

TEST(ClusterPulse, SingleNodeHashFind)
{
    ClusterConfig config;
    config.num_mem_nodes = 1;
    Cluster cluster(config);

    ds::HashTableConfig ht_config;
    ht_config.num_buckets = 8;
    ds::HashTable table(cluster.memory(), cluster.allocator(),
                        ht_config);
    for (std::uint64_t k = 1; k <= 200; k++) {
        table.insert(k * 3);
    }

    // Hit.
    auto completion =
        run_one(cluster, SystemKind::kPulse, table.make_find(300, {}));
    ASSERT_EQ(completion.status, TraversalStatus::kDone);
    EXPECT_TRUE(completion.offloaded);
    const auto result = table.parse_find(completion);
    ASSERT_TRUE(result.found);
    EXPECT_EQ(result.value_word, ds::value_pattern_word(300));
    // Latency must be at least one round trip (~2x propagation).
    EXPECT_GT(completion.latency,
              2 * config.network.link_propagation);

    // Miss.
    completion =
        run_one(cluster, SystemKind::kPulse, table.make_find(301, {}));
    ASSERT_EQ(completion.status, TraversalStatus::kDone);
    EXPECT_FALSE(table.parse_find(completion).found);
}

TEST(ClusterPulse, DistributedTraversalContinuesInNetwork)
{
    // A linked list that zig-zags between two memory nodes: every hop
    // crosses nodes, exercising switch re-routing with scratch state.
    ClusterConfig config;
    config.num_mem_nodes = 2;
    Cluster cluster(config);

    ds::LinkedList list(cluster.memory(), cluster.allocator());
    for (std::uint64_t v = 0; v < 32; v++) {
        list.build({1000 + v}, static_cast<NodeId>(v % 2));
    }

    auto completion = run_one(cluster, SystemKind::kPulse,
                              list.make_find(1000 + 31, {}));
    ASSERT_EQ(completion.status, TraversalStatus::kDone);
    std::uint64_t result = 0;
    std::memcpy(&result, completion.scratch.data() + 8, 8);
    EXPECT_EQ(result, *list.find_reference(1000 + 31));
    EXPECT_EQ(completion.iterations, 32u);
    // In-network continuation: no client bounces.
    EXPECT_EQ(completion.client_bounces, 0u);
    // 31 cross-node hops must have been forwarded by the switch.
    const auto& accel0 = cluster.accelerator(0).stats();
    const auto& accel1 = cluster.accelerator(1).stats();
    EXPECT_EQ(accel0.forwards_sent.value() +
                  accel1.forwards_sent.value(),
              31u);
}

TEST(ClusterPulseAcc, DistributedTraversalBouncesThroughClient)
{
    ClusterConfig config;
    config.num_mem_nodes = 2;
    config.set_pulse_acc(true);
    Cluster cluster(config);

    ds::LinkedList list(cluster.memory(), cluster.allocator());
    for (std::uint64_t v = 0; v < 16; v++) {
        list.build({2000 + v}, static_cast<NodeId>(v % 2));
    }

    auto completion = run_one(cluster, SystemKind::kPulse,
                              list.make_find(2000 + 15, {}));
    ASSERT_EQ(completion.status, TraversalStatus::kDone);
    EXPECT_EQ(completion.client_bounces, 15u);

    // The ACC variant must be slower than in-network continuation.
    ClusterConfig fast_config;
    fast_config.num_mem_nodes = 2;
    Cluster fast(fast_config);
    ds::LinkedList fast_list(fast.memory(), fast.allocator());
    for (std::uint64_t v = 0; v < 16; v++) {
        fast_list.build({2000 + v}, static_cast<NodeId>(v % 2));
    }
    auto fast_completion = run_one(fast, SystemKind::kPulse,
                                   fast_list.make_find(2000 + 15, {}));
    ASSERT_EQ(fast_completion.status, TraversalStatus::kDone);
    EXPECT_GT(completion.latency, fast_completion.latency * 3 / 2);
}

TEST(ClusterPulse, MaxIterContinuationIsTransparent)
{
    ClusterConfig config;
    Cluster cluster(config);
    ds::LinkedList list(cluster.memory(), cluster.allocator());
    std::vector<std::uint64_t> values;
    for (std::uint64_t v = 0; v < 1500; v++) {
        values.push_back(v);
    }
    list.build(values, 0);  // longer than kDefaultMaxIters = 512

    auto completion = run_one(cluster, SystemKind::kPulse,
                              list.make_find(1499, {}));
    ASSERT_EQ(completion.status, TraversalStatus::kDone);
    EXPECT_EQ(completion.iterations, 1500u);
    EXPECT_GE(completion.continuations, 2u);
    std::uint64_t result = 0;
    std::memcpy(&result, completion.scratch.data() + 8, 8);
    EXPECT_EQ(result, *list.find_reference(1499));
}

TEST(ClusterPulse, InvalidPointerReturnsMemFault)
{
    ClusterConfig config;
    Cluster cluster(config);
    ds::LinkedList list(cluster.memory(), cluster.allocator());
    list.build({42}, 0);
    // Corrupt the node's next pointer to an unmapped address.
    cluster.memory().write_as<std::uint64_t>(list.head() + 8,
                                             0xDEAD0000ull);
    auto completion =
        run_one(cluster, SystemKind::kPulse, list.make_find(43, {}));
    EXPECT_EQ(completion.status, TraversalStatus::kMemFault);
}

TEST(ClusterPulse, RetransmissionSurvivesPacketLoss)
{
    ClusterConfig config;
    // The plane judges uplink and downlink: a send is lost with
    // probability 0.2.
    config.faults.links.loss = 1.0 - std::sqrt(1.0 - 0.2);
    config.offload.retransmit_timeout = micros(50.0);
    Cluster cluster(config);
    ds::HashTable table(cluster.memory(), cluster.allocator(),
                        ds::HashTableConfig{.num_buckets = 4});
    for (std::uint64_t k = 1; k <= 50; k++) {
        table.insert(k);
    }

    int done = 0;
    int found = 0;
    for (std::uint64_t k = 1; k <= 50; k++) {
        auto op = table.make_find(k, {});
        op.done = [&](offload::Completion&& completion) {
            done++;
            if (completion.status == TraversalStatus::kDone &&
                table.parse_find(completion).found) {
                found++;
            }
        };
        cluster.submitter(SystemKind::kPulse)(std::move(op));
    }
    cluster.queue().run();
    EXPECT_EQ(done, 50);
    // With 8 retries at 20% loss, effectively everything completes.
    EXPECT_GE(found, 48);
    EXPECT_GT(cluster.offload_engine().stats().retransmits.value(), 0u);
}

TEST(ClusterBaselines, AllSystemsReturnIdenticalResults)
{
    ClusterConfig config;
    config.num_mem_nodes = 1;
    config.cache.cache_bytes = 1 * kMiB;
    Cluster cluster(config);

    ds::HashTableConfig ht_config;
    ht_config.num_buckets = 16;
    ds::HashTable table(cluster.memory(), cluster.allocator(),
                        ht_config);
    for (std::uint64_t k = 1; k <= 300; k++) {
        table.insert(k * 11);
    }

    for (const SystemKind kind :
         {SystemKind::kPulse, SystemKind::kCache, SystemKind::kRpc,
          SystemKind::kRpcWimpy, SystemKind::kCacheRpc}) {
        for (const std::uint64_t key : {11ull, 1650ull, 3300ull,
                                        12ull}) {
            auto op = table.make_find(key, {});
            auto completion = run_one(cluster, kind, std::move(op));
            ASSERT_EQ(completion.status, TraversalStatus::kDone)
                << system_name(kind) << " key " << key;
            const auto expected = table.find_reference(key);
            const auto result = table.parse_find(completion);
            EXPECT_EQ(result.found, expected.has_value())
                << system_name(kind) << " key " << key;
            if (expected) {
                EXPECT_EQ(result.value_word, *expected)
                    << system_name(kind);
            }
        }
    }
}

TEST(ClusterBaselines, RpcBouncesAcrossNodesViaClient)
{
    ClusterConfig config;
    config.num_mem_nodes = 2;
    Cluster cluster(config);
    ds::LinkedList list(cluster.memory(), cluster.allocator());
    for (std::uint64_t v = 0; v < 8; v++) {
        list.build({500 + v}, static_cast<NodeId>(v % 2));
    }
    auto completion =
        run_one(cluster, SystemKind::kRpc, list.make_find(507, {}));
    ASSERT_EQ(completion.status, TraversalStatus::kDone);
    EXPECT_EQ(completion.client_bounces, 7u);
    EXPECT_EQ(cluster.rpc().stats().node_bounces.value(), 7u);
}

TEST(ClusterBaselines, CacheClientHitsAfterWarmup)
{
    ClusterConfig config;
    config.cache.cache_bytes = 16 * kMiB;  // fits the whole table
    Cluster cluster(config);
    ds::HashTable table(cluster.memory(), cluster.allocator(),
                        ds::HashTableConfig{.num_buckets = 8});
    for (std::uint64_t k = 1; k <= 64; k++) {
        table.insert(k);
    }

    auto cold =
        run_one(cluster, SystemKind::kCache, table.make_find(64, {}));
    ASSERT_EQ(cold.status, TraversalStatus::kDone);
    const std::uint64_t faults_after_cold =
        cluster.cache_client().stats().faults.value();
    EXPECT_GT(faults_after_cold, 0u);

    auto warm =
        run_one(cluster, SystemKind::kCache, table.make_find(64, {}));
    ASSERT_EQ(warm.status, TraversalStatus::kDone);
    EXPECT_EQ(cluster.cache_client().stats().faults.value(),
              faults_after_cold);  // all hits the second time
    EXPECT_LT(warm.latency, cold.latency / 10);
}

TEST(ClusterBaselines, AifmCachesObjects)
{
    ClusterConfig config;
    Cluster cluster(config);
    ds::HashTable table(cluster.memory(), cluster.allocator(),
                        ds::HashTableConfig{.num_buckets = 8});
    for (std::uint64_t k = 1; k <= 64; k++) {
        table.insert(k);
    }
    auto make_op = [&](std::uint64_t key) {
        auto op = table.make_find(key, {});
        op.object_id = key;
        op.object_bytes = 256;
        return op;
    };
    auto cold = run_one(cluster, SystemKind::kCacheRpc, make_op(7));
    ASSERT_EQ(cold.status, TraversalStatus::kDone);
    auto warm = run_one(cluster, SystemKind::kCacheRpc, make_op(7));
    ASSERT_EQ(warm.status, TraversalStatus::kDone);
    EXPECT_EQ(cluster.aifm().cache().stats().hits.value(), 1u);
    EXPECT_LT(warm.latency, cold.latency / 5);
}

TEST(ClusterDriver, ClosedLoopMeasuresThroughput)
{
    ClusterConfig config;
    config.accel.workspaces_per_logic = 8;
    Cluster cluster(config);
    ds::HashTable table(cluster.memory(), cluster.allocator(),
                        ds::HashTableConfig{.num_buckets = 64});
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 1; k <= 2000; k++) {
        keys.push_back(k);
    }
    table.insert_many(keys);

    Rng rng(3);
    serve::TenantLoad load = serve::closed_loop(50, 500, 16);
    auto result = serve::run_closed_loop(
        cluster.queue(), cluster.submitter(SystemKind::kPulse),
        [&](std::uint64_t) {
            return table.make_find(keys[rng.next_below(keys.size())],
                                   {});
        },
        load);
    EXPECT_EQ(result.completed, 500u);
    EXPECT_EQ(result.errors, 0u);
    EXPECT_GT(result.throughput(), 0.0);
    EXPECT_GT(result.latency.mean(), 0);
    EXPECT_LE(result.latency.percentile(0.5),
              result.latency.percentile(0.99));
}


TEST(ClusterStats, RegistryCoversAllComponents)
{
    ClusterConfig config;
    config.num_mem_nodes = 2;
    config.num_clients = 2;
    Cluster cluster(config);
    ds::HashTable table(cluster.memory(), cluster.allocator(),
                        ds::HashTableConfig{.num_buckets = 8,
                                            .partitions = 2});
    for (std::uint64_t k = 1; k <= 50; k++) {
        table.insert(k);
    }
    run_one(cluster, SystemKind::kPulse, table.make_find(7, {}));
    run_one(cluster, SystemKind::kRpc, table.make_find(7, {}));
    run_one(cluster, SystemKind::kCache, table.make_find(7, {}));

    StatRegistry registry;
    cluster.register_stats(registry);
    const auto snapshot = registry.snapshot();
    EXPECT_GT(snapshot.at("node0.accel.requests") +
                  snapshot.at("node1.accel.requests"),
              0.0);
    EXPECT_EQ(snapshot.at("client0.offload.submitted"), 1.0);
    EXPECT_EQ(snapshot.at("client1.offload.submitted"), 0.0);
    EXPECT_EQ(snapshot.at("rpc.requests"), 1.0);
    EXPECT_GT(snapshot.at("client0.cache.faults"), 0.0);
    EXPECT_EQ(snapshot.at("client0.aifm.operations"), 0.0);
    // The dump renders every registered name.
    const std::string dump = registry.dump();
    EXPECT_NE(dump.find("rpc_wimpy.worker_busy_ps"),
              std::string::npos);
}

/**
 * Reset-coverage audit: after reset_stats(), a re-run of the same
 * measured workload must reproduce every registered statistic exactly.
 * Any counter or accumulator missed by a component's reset (or any
 * stat secretly keyed to absolute time) would leak the first run into
 * the second and break the equality. The first run's warmup absorbs
 * one-time state transitions (program code installation) so both
 * measured windows see an identical steady state.
 */
TEST(ClusterStats, ResetThenRerunReproducesStatsExactly)
{
    ClusterConfig config;
    config.trace.enabled = true;  // tracer must reset too
    Cluster cluster(config);
    ds::LinkedList list(cluster.memory(), cluster.allocator(), 64);
    std::vector<std::uint64_t> values(512);
    for (std::size_t i = 0; i < values.size(); i++) {
        values[i] = i;
    }
    list.build(values, 0);

    serve::TenantLoad load = serve::closed_loop(50, 200, 4);
    load.on_measure_start = [&cluster] { cluster.reset_stats(); };
    const auto factory = [&](std::uint64_t op) {
        return list.make_walk(6 + op % 10, {});
    };

    const auto measure = [&] {
        return serve::run_closed_loop(cluster.queue(),
                               cluster.submitter(SystemKind::kPulse),
                               factory, load);
    };
    // Priming run (discarded): absorbs one-time program-code
    // installation so the two compared runs begin from the same
    // steady state — fully drained, code installed.
    measure();
    const serve::TenantFleetStats first = measure();
    StatRegistry registry;
    cluster.register_stats(registry);
    const auto snapshot1 = registry.snapshot();
    const std::uint64_t spans1 = cluster.tracer().recorded();

    const serve::TenantFleetStats second = measure();
    const auto snapshot2 = registry.snapshot();

    ASSERT_EQ(snapshot1.size(), snapshot2.size());
    for (const auto& [name, value] : snapshot1) {
        ASSERT_TRUE(snapshot2.count(name)) << name;
        EXPECT_EQ(value, snapshot2.at(name)) << name;
    }
    EXPECT_EQ(first.completed, second.completed);
    EXPECT_EQ(first.iterations, second.iterations);
    EXPECT_EQ(first.measure_time, second.measure_time);
    EXPECT_EQ(first.latency.sum(), second.latency.sum());
    EXPECT_EQ(first.latency.min(), second.latency.min());
    EXPECT_EQ(first.latency.max(), second.latency.max());
    EXPECT_EQ(spans1, cluster.tracer().recorded());
}

}  // namespace
}  // namespace pulse::core
