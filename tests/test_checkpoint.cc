/**
 * @file
 * Checkpoint/restore determinism (docs/PERF.md): a run restored from a
 * quiesce-point snapshot must continue *bit-identically* to the run
 * that kept going without the save/restore cycle — same clock, same
 * latencies, same counters, byte-identical metrics export. Long
 * scenarios rely on this to fork from a warmed snapshot instead of
 * replaying the build + warmup phases.
 *
 * The op streams here are deterministic *by index* (no shared RNG
 * state), so the continuation issues the same operations whether it
 * runs on the original cluster or on a freshly-built one that loaded
 * the snapshot.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "apps/apps.h"
#include "check/fuzzer.h"
#include "common/random.h"
#include "ds/bptree.h"
#include "ds/ds_common.h"
#include "trace/metrics_exporter.h"
#include "workloads/driver.h"
#include "golden_digest.h"

namespace pulse {
namespace {

core::ClusterConfig
test_config()
{
    core::ClusterConfig config;
    config.num_mem_nodes = 2;
    config.accel.workspaces_per_logic = 8;
    return config;
}

apps::AppScale
test_scale()
{
    apps::AppScale scale;
    scale.upc_keys = 20'000;
    return scale;
}

/** Lookup stream deterministic by op index: same index, same key, no
 *  matter which cluster instance or driver invocation issues it. */
workloads::OpFactory
indexed_factory(apps::UpcApp& app, std::uint64_t offset)
{
    return [&app, offset](std::uint64_t index) {
        const std::uint64_t mixed =
            (offset + index) * 0x9E3779B97F4A7C15ull;
        const std::uint64_t key =
            workloads::key_of(mixed % app.num_keys());
        return app.table().make_find(key, nullptr);
    };
}

workloads::DriverResult
run_ops(core::Cluster& cluster, apps::UpcApp& app, std::uint64_t offset,
        std::uint64_t ops, std::uint32_t concurrency)
{
    workloads::DriverConfig driver;
    driver.warmup_ops = 0;
    driver.measure_ops = ops;
    driver.concurrency = concurrency;
    return run_closed_loop(cluster.queue(),
                           cluster.submitter(core::SystemKind::kPulse),
                           indexed_factory(app, offset), driver);
}

/** Everything observable about a finished continuation, including the
 *  full metrics export (every registered counter, bit-exact). */
std::tuple<std::uint64_t, std::uint64_t, Time, Time, Time, std::string>
digest(const workloads::DriverResult& result, core::Cluster& cluster)
{
    trace::MetricsExporter exporter;
    cluster.export_metrics(exporter);
    return {result.completed,
            result.iterations,
            result.latency.mean(),
            result.latency.percentile(0.99),
            cluster.queue().now(),
            exporter.json()};
}

/** Two-partition B+tree of 2000 keys for the fork/join tests. */
std::unique_ptr<ds::BPTree>
build_tree(core::Cluster& cluster)
{
    ds::BPTreeConfig bt;
    bt.inline_values = true;
    bt.partitions = 2;
    auto tree = std::make_unique<ds::BPTree>(cluster.memory(),
                                             cluster.allocator(), bt);
    std::vector<ds::BPTreeEntry> entries;
    Rng rng(31);
    std::uint64_t key = 100;
    for (int i = 0; i < 2000; i++) {
        key += 1 + rng.next_below(18);
        entries.push_back({key, ds::value_pattern_word(key)});
    }
    tree->build(entries);
    return tree;
}

/** Forked-sum stream deterministic by op index. */
workloads::DriverResult
run_forked(core::Cluster& cluster, ds::BPTree& tree, std::uint64_t ops)
{
    constexpr std::uint64_t kKeySpan = 20'000;
    workloads::DriverConfig driver;
    driver.warmup_ops = 0;
    driver.measure_ops = ops;
    driver.concurrency = 6;
    return run_closed_loop(
        cluster.queue(), cluster.submitter(core::SystemKind::kPulse),
        [&tree](std::uint64_t index) {
            const std::uint64_t mixed = index * 0x9E3779B97F4A7C15ull;
            const std::uint64_t lo = 100 + mixed % kKeySpan;
            return tree.make_aggregate_forked(lo, lo + 4000, nullptr);
        },
        driver);
}

TEST(Checkpoint, RestoredContinuationIsBitIdentical)
{
    constexpr std::uint64_t kPhase1 = 400;
    constexpr std::uint64_t kPhase2 = 300;

    // Original: run phase 1, snapshot at the quiesce point, keep going.
    core::Cluster original(test_config());
    apps::UpcApp app_a(original, test_scale());
    run_ops(original, app_a, 0, kPhase1, 8);
    const std::vector<std::uint8_t> blob = original.save_checkpoint();
    const auto continued =
        digest(run_ops(original, app_a, kPhase1, kPhase2, 8), original);

    // Fork: identically-built cluster loads the snapshot (the app
    // rebuild re-populates memory; restore overwrites it with the
    // snapshot's bytes and counters) and runs the same continuation.
    core::Cluster forked(test_config());
    apps::UpcApp app_b(forked, test_scale());
    ASSERT_TRUE(forked.restore_checkpoint(blob, nullptr));
    const auto restored =
        digest(run_ops(forked, app_b, kPhase1, kPhase2, 8), forked);

    EXPECT_EQ(continued, restored);
}

TEST(Checkpoint, SaveRestoreSaveIsByteStable)
{
    core::Cluster original(test_config());
    apps::UpcApp app_a(original, test_scale());
    run_ops(original, app_a, 0, 200, 4);
    const std::vector<std::uint8_t> blob = original.save_checkpoint();

    core::Cluster forked(test_config());
    apps::UpcApp app_b(forked, test_scale());
    ASSERT_TRUE(forked.restore_checkpoint(blob, nullptr));
    EXPECT_EQ(forked.save_checkpoint(), blob);
}

TEST(Checkpoint, FileRoundTrip)
{
    const std::string path =
        (std::filesystem::temp_directory_path() / "pulse_ckpt_test.bin")
            .string();

    core::Cluster original(test_config());
    apps::UpcApp app_a(original, test_scale());
    run_ops(original, app_a, 0, 150, 4);
    original.save_checkpoint_file(path);

    core::Cluster forked(test_config());
    apps::UpcApp app_b(forked, test_scale());
    ASSERT_TRUE(forked.restore_checkpoint_file(path, nullptr));
    EXPECT_EQ(forked.save_checkpoint(), original.save_checkpoint());
    std::filesystem::remove(path);
}

TEST(Checkpoint, FingerprintMismatchIsFatal)
{
    core::Cluster original(test_config());
    apps::UpcApp app(original, test_scale());
    run_ops(original, app, 0, 50, 2);
    const std::vector<std::uint8_t> blob = original.save_checkpoint();

    core::ClusterConfig other = test_config();
    other.num_mem_nodes = 3;
    core::Cluster mismatched(other);
    std::string error;
    EXPECT_FALSE(mismatched.restore_checkpoint(blob, &error));
    EXPECT_NE(error.find("fingerprint num_mem_nodes mismatch"),
              std::string::npos)
        << error;
}

/**
 * Replays a committed fuzz-corpus seed through a restore: the corpus
 * program (check/fuzzer.h, same generator the reproducer suite uses)
 * runs as the continuation workload on both the original and the
 * restored cluster. Exercises the restore path with adversarial ISA
 * programs — protection faults, iteration caps and all — instead of
 * only the well-formed app traversals above.
 */
TEST(Checkpoint, FuzzCorpusSeedReplaysThroughRestore)
{
    const std::filesystem::path corpus_file =
        std::filesystem::path(PULSE_FUZZ_CORPUS_DIR) /
        "program_seed2001.json";
    std::ifstream in(corpus_file);
    ASSERT_TRUE(in.good()) << corpus_file;
    std::stringstream buffer;
    buffer << in.rdbuf();
    check::FuzzCase corpus_case;
    std::string error;
    ASSERT_TRUE(
        check::FuzzCase::from_json(buffer.str(), &corpus_case, &error))
        << error;

    const auto program = std::make_shared<isa::Program>(
        check::random_program(corpus_case.seed));

    const auto fuzz_run = [&](core::Cluster& cluster,
                              apps::UpcApp& app) {
        workloads::DriverConfig driver;
        driver.warmup_ops = 0;
        driver.measure_ops = 64;
        driver.concurrency = 4;
        const workloads::OpFactory factory =
            [&app, &program](std::uint64_t index) {
                const std::uint64_t key = workloads::key_of(
                    (index * 0x9E3779B97F4A7C15ull) % app.num_keys());
                offload::Operation op =
                    app.table().make_find(key, nullptr);
                op.program = program;  // corpus program, app memory
                return op;
            };
        const workloads::DriverResult result = run_closed_loop(
            cluster.queue(),
            cluster.submitter(core::SystemKind::kPulse), factory,
            driver);
        return digest(result, cluster);
    };

    core::Cluster original(test_config());
    apps::UpcApp app_a(original, test_scale());
    run_ops(original, app_a, 0, 200, 4);
    const std::vector<std::uint8_t> blob = original.save_checkpoint();
    const auto continued = fuzz_run(original, app_a);

    core::Cluster forked(test_config());
    apps::UpcApp app_b(forked, test_scale());
    ASSERT_TRUE(forked.restore_checkpoint(blob, nullptr));
    const auto restored = fuzz_run(forked, app_b);

    EXPECT_EQ(continued, restored);
}

/**
 * Fork/join traversals across a save/restore cycle: the checkpoint
 * serializer carries the engine's join-state records (fork/join
 * counters; in-flight join records are empty at the quiesce point by
 * construction), and a restored run issuing the same forked
 * aggregates must continue bit-identically — every sub-traversal
 * spawn, every join fold, every latency sample.
 */
TEST(Checkpoint, ForkedWorkRestoresBitIdentically)
{
    constexpr std::uint64_t kPhase1 = 100;
    constexpr std::uint64_t kPhase2 = 80;

    core::Cluster original(test_config());
    auto tree_a = build_tree(original);
    run_forked(original, *tree_a, kPhase1);
    const std::vector<std::uint8_t> blob = original.save_checkpoint();
    const auto continued =
        digest(run_forked(original, *tree_a, kPhase2), original);

    core::Cluster forked(test_config());
    auto tree_b = build_tree(forked);
    ASSERT_TRUE(forked.restore_checkpoint(blob, nullptr));
    // The snapshot (join-state records included) is byte-stable...
    EXPECT_EQ(forked.save_checkpoint(), blob);
    // ...and the restored continuation is bit-identical.
    const auto restored =
        digest(run_forked(forked, *tree_b, kPhase2), forked);
    EXPECT_EQ(continued, restored);
}

/**
 * Format golden: the blob of a fixed scenario — hash-table lookups
 * plus forked B+tree aggregates, so the fork counters and the
 * code-send table are non-empty — must hash to the committed digest.
 */
TEST(CheckpointGolden, ClusterBlob)
{
    core::Cluster cluster(test_config());
    apps::UpcApp app(cluster, test_scale());
    auto tree = build_tree(cluster);
    run_ops(cluster, app, 0, 200, 4);
    run_forked(cluster, *tree, 60);
    testing::expect_golden_digest("cluster", cluster.save_checkpoint());
}

}  // namespace
}  // namespace pulse
