/**
 * @file
 * Determinism contract of the parallel sweep runner: a sweep executed
 * on N worker threads must produce results byte-identical to the
 * serial (--threads=1) run — same outcomes bit-for-bit, consume
 * callbacks and deferred metrics replay in add() order regardless of
 * which worker finished first.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <utility>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sweep_runner.h"

namespace pulse::bench {
namespace {

/** Small, fast cells that still exercise distinct simulations. */
std::vector<RunSpec>
tiny_cells()
{
    std::vector<RunSpec> cells;
    for (const App app : {App::kUpc, App::kTc, App::kTsv15}) {
        for (const std::uint32_t concurrency : {1u, 4u}) {
            RunSpec spec =
                main_spec(app, core::SystemKind::kPulse, 1);
            spec.concurrency = concurrency;
            spec.warmup_ops = 5;
            spec.measure_ops = 20;
            cells.push_back(spec);
        }
    }
    return cells;
}

/** Run the tiny sweep at the given worker count, collecting outcomes
 *  and the order in which consume callbacks fire. */
std::vector<RunOutcome>
run_sweep(unsigned threads, std::vector<std::string>* consume_order)
{
    const unsigned saved = bench_options().threads;
    bench_options().threads = threads;
    const std::vector<RunSpec> cells = tiny_cells();
    std::vector<RunOutcome> outcomes(cells.size());
    SweepRunner sweep("determinism_test");
    for (std::size_t i = 0; i < cells.size(); i++) {
        const std::string label = cell_label(cells[i]);
        sweep.add_spec(label, cells[i],
                       [i, label, &outcomes,
                        consume_order](const RunOutcome& outcome) {
                           outcomes[i] = outcome;
                           if (consume_order != nullptr) {
                               consume_order->push_back(label);
                           }
                       });
    }
    sweep.run_all();
    bench_options().threads = saved;
    return outcomes;
}

/** Exact (bitwise) double equality — determinism means identical
 *  arithmetic, not merely close results. */
bool
same_bits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(SweepDeterminism, ParallelMatchesSerialBitForBit)
{
    const std::vector<RunOutcome> serial = run_sweep(1, nullptr);
    const std::vector<RunOutcome> parallel = run_sweep(4, nullptr);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); i++) {
        SCOPED_TRACE("cell " + std::to_string(i));
        EXPECT_EQ(serial[i].stats.completed,
                  parallel[i].stats.completed);
        EXPECT_EQ(serial[i].stats.iterations,
                  parallel[i].stats.iterations);
        EXPECT_EQ(serial[i].stats.errors, parallel[i].stats.errors);
        EXPECT_TRUE(same_bits(serial[i].mean_us,
                              parallel[i].mean_us));
        EXPECT_TRUE(same_bits(serial[i].p99_us, parallel[i].p99_us));
        EXPECT_TRUE(same_bits(serial[i].kops, parallel[i].kops));
        EXPECT_TRUE(same_bits(serial[i].mem_bw, parallel[i].mem_bw));
        EXPECT_TRUE(same_bits(serial[i].net_bw, parallel[i].net_bw));
        EXPECT_TRUE(same_bits(serial[i].joules_per_op,
                              parallel[i].joules_per_op));
        EXPECT_TRUE(same_bits(serial[i].avg_iterations,
                              parallel[i].avg_iterations));
    }
}

TEST(SweepDeterminism, ConsumeRunsInAddOrderUnderParallelism)
{
    std::vector<std::string> expected_order;
    for (const RunSpec& spec : tiny_cells()) {
        expected_order.push_back(cell_label(spec));
    }
    std::vector<std::string> order;
    run_sweep(4, &order);
    EXPECT_EQ(order, expected_order);
}

TEST(SweepDeterminism, RepeatedSerialRunsAreIdentical)
{
    const std::vector<RunOutcome> first = run_sweep(1, nullptr);
    const std::vector<RunOutcome> second = run_sweep(1, nullptr);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); i++) {
        EXPECT_TRUE(same_bits(first[i].mean_us, second[i].mean_us));
        EXPECT_EQ(first[i].stats.completed,
                  second[i].stats.completed);
    }
}

TEST(SweepDeterminism, BespokeCellsRunAndAccountEvents)
{
    bench_options().threads = 2;
    std::vector<int> ran(3, 0);
    SweepRunner sweep("bespoke_test");
    for (int i = 0; i < 3; i++) {
        sweep.add("cell" + std::to_string(i),
                  [i, &ran](CellContext& ctx) {
                      ctx.add_events(100);
                      ran[i] = i + 1;
                  });
    }
    sweep.run_all();
    bench_options().threads = 1;
    EXPECT_EQ(ran, (std::vector<int>{1, 2, 3}));
}

TEST(BenchOptions, ParseArgsStripsHarnessFlags)
{
    const unsigned saved_threads = bench_options().threads;
    const double saved_scale = bench_options().ops_scale;

    char prog[] = "bench";
    char threads_flag[] = "--threads=3";
    char keep[] = "--benchmark_filter=x";
    char scale_flag[] = "--ops-scale=0.5";
    char* argv[] = {prog, threads_flag, keep, scale_flag, nullptr};
    int argc = 4;
    parse_bench_args(argc, argv);
    EXPECT_EQ(argc, 2);
    EXPECT_STREQ(argv[0], "bench");
    EXPECT_STREQ(argv[1], "--benchmark_filter=x");
    EXPECT_EQ(argv[2], nullptr);
    EXPECT_EQ(bench_options().threads, 3u);
    EXPECT_EQ(bench_options().ops_scale, 0.5);

    bench_options().threads = saved_threads;
    bench_options().ops_scale = saved_scale;
}

TEST(BenchOptions, FlagsOverrideTheEnvironment)
{
    setenv("PULSE_BENCH_THREADS", "3", 1);
    setenv("PULSE_BENCH_OPS_SCALE", "0.5", 1);
    BenchOptions options;
    char prog[] = "bench";
    char threads_flag[] = "--threads=2";
    char* argv[] = {prog, threads_flag, nullptr};
    int argc = 2;
    std::string error;
    EXPECT_TRUE(parse_bench_flags(argc, argv, options, &error)) << error;
    EXPECT_EQ(argc, 1);
    EXPECT_EQ(options.threads, 2u);
    EXPECT_EQ(options.ops_scale, 0.5);
    unsetenv("PULSE_BENCH_THREADS");
    unsetenv("PULSE_BENCH_OPS_SCALE");
}

TEST(BenchOptions, MalformedFlagsAndKnobsAreRejected)
{
    const std::pair<const char*, const char*> bad_flags[] = {
        {"--ops-scale=abc", "a positive number"},
        {"--ops-scale=0", "a positive number"},
        {"--threads=4x", "a positive integer"},
        {"--threads=-3", "a positive integer"},
    };
    for (const auto& [bad, accepted] : bad_flags) {
        BenchOptions options;
        options.threads = 7;
        char prog[] = "bench";
        std::string flag = bad;
        char* argv[] = {prog, flag.data(), nullptr};
        int argc = 2;
        std::string error;
        EXPECT_FALSE(parse_bench_flags(argc, argv, options, &error))
            << bad;
        EXPECT_NE(error.find(bad), std::string::npos) << error;
        EXPECT_NE(error.find(accepted), std::string::npos) << error;
        EXPECT_EQ(options.threads, 7u);
        EXPECT_EQ(options.ops_scale, 1.0);
    }

    const std::pair<const char*, const char*> bad_knobs[] = {
        {"PULSE_BENCH_OPS_SCALE", "abc"},
        {"PULSE_BENCH_THREADS", "-3"},
        {"PULSE_CHECK", "oracel"},
        {"PULSE_REPLICATION", "k4oops"},
    };
    for (const auto& [knob, bad] : bad_knobs) {
        setenv(knob, bad, 1);
        BenchOptions options;
        char prog[] = "bench";
        char* argv[] = {prog, nullptr};
        int argc = 1;
        std::string error;
        EXPECT_FALSE(parse_bench_flags(argc, argv, options, &error))
            << knob;
        EXPECT_NE(error.find(knob), std::string::npos) << error;
        unsetenv(knob);
    }
}

TEST(BenchOptions, OpsScaleFloorsAtOneOp)
{
    const double saved = bench_options().ops_scale;
    RunSpec spec;
    spec.warmup_ops = 100;
    spec.measure_ops = 600;

    bench_options().ops_scale = 0.001;
    RunSpec scaled = apply_ops_scale(spec);
    EXPECT_EQ(scaled.warmup_ops, 1u);
    EXPECT_EQ(scaled.measure_ops, 1u);

    // Exactly 1.0 bypasses the arithmetic entirely (bit-identity).
    bench_options().ops_scale = 1.0;
    scaled = apply_ops_scale(spec);
    EXPECT_EQ(scaled.warmup_ops, 100u);
    EXPECT_EQ(scaled.measure_ops, 600u);

    bench_options().ops_scale = saved;
}

}  // namespace
}  // namespace pulse::bench
