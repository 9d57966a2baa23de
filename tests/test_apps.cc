/**
 * @file
 * Tests for the application layer (UPC / TC / TSV setups) — the
 * paper-facing workload characteristics of Table 2: chain lengths,
 * iteration counts, eta values, and partitioning behaviour.
 */
#include <gtest/gtest.h>

#include "apps/apps.h"
#include "isa/analysis.h"
#include "isa/codec.h"

namespace pulse::apps {
namespace {

offload::Completion
run_op(core::Cluster& cluster, offload::Operation op)
{
    offload::Completion result;
    op.done = [&](offload::Completion&& completion) {
        result = std::move(completion);
    };
    cluster.submitter(core::SystemKind::kPulse)(std::move(op));
    cluster.queue().run();
    return result;
}

AppScale
small_scale()
{
    AppScale scale;
    scale.upc_keys = 20'000;
    scale.tc_keys = 15'000;
    scale.tsv_samples = 60'000;
    return scale;
}

TEST(UpcApp, ChainLengthMatchesTable2)
{
    core::ClusterConfig config;
    config.num_mem_nodes = 2;
    core::Cluster cluster(config);
    UpcApp app(cluster, small_scale());

    // Table 2: ~100 visited nodes per lookup (high load factor).
    Rng rng(1);
    auto factory = app.factory();
    std::uint64_t iterations = 0;
    const int n = 60;
    for (int i = 0; i < n; i++) {
        const auto completion = run_op(cluster, factory(i));
        ASSERT_EQ(completion.status, isa::TraversalStatus::kDone);
        iterations += completion.iterations;
    }
    const double avg = static_cast<double>(iterations) / n;
    EXPECT_GT(avg, 60.0);
    EXPECT_LT(avg, 160.0);
}

TEST(UpcApp, LookupsAlwaysSucceedAndVerify)
{
    core::ClusterConfig config;
    core::Cluster cluster(config);
    UpcApp app(cluster, small_scale());
    auto factory = app.factory();
    for (int i = 0; i < 30; i++) {
        auto op = factory(i);
        const std::uint64_t key = op.object_id;  // factory sets it
        const auto completion = run_op(cluster, std::move(op));
        const auto result = app.table().parse_find(completion);
        ASSERT_TRUE(result.found) << "op " << i;
        EXPECT_EQ(result.value_word, ds::value_pattern_word(key));
    }
}

TEST(TsvApp, IterationCountsScaleWithWindow)
{
    core::ClusterConfig config;
    core::Cluster cluster(config);
    const AppScale scale = small_scale();

    double last_avg = 0.0;
    for (const double window : {7.5, 15.0}) {
        TsvApp app(cluster, scale, window, false,
                   /*seed=*/static_cast<std::uint64_t>(window * 10));
        auto factory = app.factory();
        std::uint64_t iterations = 0;
        const int n = 25;
        for (int i = 0; i < n; i++) {
            const auto completion = run_op(cluster, factory(i));
            ASSERT_EQ(completion.status,
                      isa::TraversalStatus::kDone);
            iterations += completion.iterations;
        }
        const double avg = static_cast<double>(iterations) / n;
        // Table 2: ~45 iterations at 7.5 s, roughly doubling per
        // window doubling.
        if (window == 7.5) {
            EXPECT_NEAR(avg, 45.0, 8.0);
        } else {
            EXPECT_NEAR(avg, 2.0 * last_avg, last_avg * 0.2);
        }
        last_avg = avg;
    }
}

TEST(TcApp, ScansFoldConsistently)
{
    core::ClusterConfig config;
    config.num_mem_nodes = 2;
    config.alloc_policy = mem::AllocPolicy::kUniform;
    core::Cluster cluster(config);
    TcApp app(cluster, small_scale(), /*uniform_alloc=*/true);
    auto factory = app.factory();
    for (int i = 0; i < 15; i++) {
        const auto completion = run_op(cluster, factory(i));
        ASSERT_EQ(completion.status, isa::TraversalStatus::kDone);
        const auto result = ds::BPTree::parse_scan(completion);
        EXPECT_TRUE(result.complete);
        EXPECT_GE(result.count, 1u);
    }
}

TEST(Apps, DataByteEstimatesAreSane)
{
    const AppScale scale = small_scale();
    EXPECT_GT(upc_data_bytes(scale), scale.upc_keys * 256);
    EXPECT_GT(tc_data_bytes(scale), scale.tc_keys * 240);
    EXPECT_GT(tsv_data_bytes(scale), scale.tsv_samples * 16);
}

TEST(Apps, Table2EtaOrdering)
{
    // eta(UPC) << eta(TC) < eta(TSV), all <= 1 (Table 2).
    core::ClusterConfig config;
    core::Cluster cluster(config);
    const AppScale scale = small_scale();
    UpcApp upc(cluster, scale);
    TcApp tc(cluster, scale);
    TsvApp tsv(cluster, scale, 7.5);

    const auto eta = [&](const auto& program) {
        return compute_eta(program->analysis(),
                           config.accel.logic_time_per_insn,
                           config.accel.mem_pipeline_latency);
    };
    const double upc_eta = eta(upc.table().find_program());
    const double tc_eta = eta(tc.tree().scan_fold_program());
    const double tsv_eta =
        eta(tsv.tree().aggregate_program(ds::AggKind::kMin));
    EXPECT_LT(upc_eta, 0.15);
    EXPECT_GT(tc_eta, upc_eta * 4);
    EXPECT_GT(tsv_eta, tc_eta);
    EXPECT_LE(tsv_eta, 1.0);

    // Every app program, and invalid ones, carry exactly what
    // isa::analyze() and isa::wire_code_size() derive.
    std::vector<std::shared_ptr<const isa::Program>> programs = {
        upc.table().find_program(), upc.table().update_program(),
        tc.tree().scan_fold_program(),
        tsv.tree().aggregate_forked_program()};
    for (const ds::AggKind kind : {ds::AggKind::kSum, ds::AggKind::kCount,
                                   ds::AggKind::kMin, ds::AggKind::kMax}) {
        programs.push_back(tsv.tree().aggregate_program(kind));
    }
    isa::ProgramBuilder unterminated;
    unterminated.load(16).add(isa::sp(0), isa::sp(0), isa::dat(0));
    programs.push_back(
        std::make_shared<const isa::Program>(unterminated.build()));
    programs.push_back(std::make_shared<const isa::Program>());
    for (const auto& program : programs) {
        EXPECT_EQ(program->analysis(), isa::analyze(*program));
        EXPECT_EQ(program->wire_code_size(),
                  isa::wire_code_size(*program));
    }
    EXPECT_TRUE(programs.front()->analysis().valid);
    EXPECT_TRUE(programs[3]->analysis().has_spawn);
    EXPECT_FALSE(programs[programs.size() - 2]->analysis().valid);
    EXPECT_FALSE(programs.back()->analysis().valid);
}

}  // namespace
}  // namespace pulse::apps
