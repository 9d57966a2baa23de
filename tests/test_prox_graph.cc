/**
 * @file
 * Tests for the proximity-graph greedy search — the graph-traversal
 * workload class of paper section 2.1, expressed in the iterator
 * model. Offloaded searches must match the host reference, converge
 * to the global nearest key (the 1-D small world has no false local
 * minima for these link sets), and stay within the offload test.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "core/cluster.h"
#include "ds/prox_graph.h"
#include "isa/analysis.h"

namespace pulse::ds {
namespace {

using core::Cluster;
using core::ClusterConfig;
using core::SystemKind;

offload::Completion
run_pulse(Cluster& cluster, offload::Operation op)
{
    offload::Completion result;
    op.done = [&](offload::Completion&& completion) {
        result = std::move(completion);
    };
    cluster.submitter(SystemKind::kPulse)(std::move(op));
    cluster.queue().run();
    return result;
}

std::vector<std::uint64_t>
make_keys(std::uint64_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint64_t> keys;
    std::uint64_t key = 100;
    for (std::uint64_t i = 0; i < n; i++) {
        key += 1 + rng.next_below(50);
        keys.push_back(key);
    }
    return keys;
}

/** Brute-force nearest key. */
std::uint64_t
nearest(const std::vector<std::uint64_t>& keys, std::uint64_t target)
{
    std::uint64_t best = keys.front();
    auto dist = [&](std::uint64_t k) {
        return k > target ? k - target : target - k;
    };
    for (const std::uint64_t key : keys) {
        if (dist(key) < dist(best)) {
            best = key;
        }
    }
    return best;
}

TEST(ProxGraph, ProgramIsOffloadable)
{
    ClusterConfig config;
    Cluster cluster(config);
    ProxGraph graph(cluster.memory(), cluster.allocator());
    graph.build(make_keys(64, 1), 0);
    const auto& analysis = graph.greedy_program()->analysis();
    ASSERT_TRUE(analysis.valid) << analysis.error;
    EXPECT_TRUE(cluster.offload_engine().should_offload(analysis));
    EXPECT_EQ(analysis.load_bytes, ProxGraph::kNodeBytes);
}

TEST(ProxGraph, GreedySearchMatchesReferenceAndBruteForce)
{
    ClusterConfig config;
    Cluster cluster(config);
    ProxGraph graph(cluster.memory(), cluster.allocator());
    const auto keys = make_keys(500, 2);
    graph.build(keys, 0);

    Rng rng(3);
    for (int probe = 0; probe < 40; probe++) {
        const std::uint64_t target =
            rng.next_range(50, keys.back() + 100);
        const auto completion =
            run_pulse(cluster, graph.make_search(target, {}));
        ASSERT_EQ(completion.status, isa::TraversalStatus::kDone);
        EXPECT_TRUE(completion.offloaded);
        const auto got = ProxGraph::parse_search(completion);
        const auto want = graph.search_reference(target);
        ASSERT_TRUE(got.complete);
        EXPECT_EQ(got.key, want.key) << "target " << target;
        EXPECT_EQ(got.vertex, want.vertex);
        EXPECT_EQ(got.distance, want.distance);
        // The 1-D small world has no false local minima: greedy finds
        // the true nearest key.
        EXPECT_EQ(got.key, nearest(keys, target)) << target;
    }
}

TEST(ProxGraph, ConvergesInLogarithmicHops)
{
    ClusterConfig config;
    Cluster cluster(config);
    ProxGraph graph(cluster.memory(), cluster.allocator());
    const auto keys = make_keys(2048, 4);
    graph.build(keys, 0);

    // Search for the extreme key from the middle entry: the +-8
    // stride bounds hops to ~n/8 worst case but the doubling strides
    // make typical paths far shorter than linear.
    const auto completion =
        run_pulse(cluster, graph.make_search(keys.front(), {}));
    ASSERT_EQ(completion.status, isa::TraversalStatus::kDone);
    EXPECT_EQ(ProxGraph::parse_search(completion).key, keys.front());
    EXPECT_LT(completion.iterations, 2048u / 8 + 16);
    EXPECT_GT(completion.iterations, 8u);
}

TEST(ProxGraph, DistributedSearchCrossesNodes)
{
    ClusterConfig config;
    config.num_mem_nodes = 2;
    config.alloc_policy = mem::AllocPolicy::kUniform;
    config.uniform_chunk_bytes = 4 * kKiB;
    Cluster cluster(config);
    ProxGraph graph(cluster.memory(), cluster.allocator());
    const auto keys = make_keys(600, 5);
    graph.build(keys);  // placement follows the uniform policy

    const auto completion =
        run_pulse(cluster, graph.make_search(keys.back() + 50, {}));
    ASSERT_EQ(completion.status, isa::TraversalStatus::kDone);
    EXPECT_EQ(ProxGraph::parse_search(completion).key, keys.back());
    // The walk crossed memory nodes via switch continuations.
    std::uint64_t forwards = 0;
    for (NodeId node = 0; node < 2; node++) {
        forwards +=
            cluster.accelerator(node).stats().forwards_sent.value();
    }
    EXPECT_GT(forwards, 0u);
    EXPECT_EQ(completion.client_bounces, 0u);
}

TEST(ProxGraph, ExactHitHasZeroDistance)
{
    ClusterConfig config;
    Cluster cluster(config);
    ProxGraph graph(cluster.memory(), cluster.allocator());
    const auto keys = make_keys(300, 6);
    graph.build(keys, 0);
    const std::uint64_t target = keys[77];
    const auto completion =
        run_pulse(cluster, graph.make_search(target, {}));
    const auto result = ProxGraph::parse_search(completion);
    EXPECT_EQ(result.key, target);
    EXPECT_EQ(result.distance, 0u);
}

}  // namespace
}  // namespace pulse::ds
