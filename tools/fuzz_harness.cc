/**
 * @file
 * Seeded fuzz harness for the pulse correctness subsystem
 * (docs/TESTING.md).
 *
 * Modes of use:
 *   - generation sweep (default): derive --cases cases from --seed,
 *     run each with oracle + invariants on, stop early when
 *     --budget-ms is exhausted. On the first failure: minimize, print
 *     the reproducer JSON, write it next to the corpus (or cwd), and
 *     exit 1. A generated case carries the PULSE_PLACEMENT and
 *     PULSE_REPLICATION modes it ran under, so its reproducer replays
 *     with them.
 *   - --repro=FILE.json: replay one committed reproducer.
 *   - --corpus=DIR: replay every *.json in DIR (what CI's fuzz lane
 *     and tests/test_fuzz_repros.cc do).
 *   - --corpus-out=DIR: additionally write every generated case to
 *     DIR (used once to seed tests/fuzz_corpus).
 *   - --mutate=NAME: arm an intentional production-interpreter bug
 *     (isa::set_interpreter_mutation) before running; combined with
 *     --expect-mismatch this is the mutation test proving the oracle
 *     actually catches interpreter bugs — the run *fails* if every
 *     case passes.
 */
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/fuzzer.h"
#include "common/knobs.h"
#include "isa/interpreter.h"

namespace {

using pulse::check::FuzzCase;
using pulse::check::FuzzResult;

struct Options
{
    std::uint64_t seed = 1;
    std::uint64_t cases = 20;
    std::uint64_t budget_ms = 0;  ///< 0 = unlimited
    std::string repro;
    std::string corpus;
    std::string corpus_out;
    std::string mutate;
    bool expect_mismatch = false;
};

bool
parse_u64(const char* text, std::uint64_t* out)
{
    char* end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0') {
        return false;
    }
    *out = value;
    return true;
}

bool
parse_args(int argc, char** argv, Options* options)
{
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        auto value_of = [&](const char* prefix) -> const char* {
            const std::size_t len = std::strlen(prefix);
            if (arg.compare(0, len, prefix) == 0) {
                return arg.c_str() + len;
            }
            return nullptr;
        };
        if (const char* v = value_of("--seed=")) {
            if (!parse_u64(v, &options->seed)) {
                return false;
            }
        } else if (const char* v = value_of("--cases=")) {
            if (!parse_u64(v, &options->cases)) {
                return false;
            }
        } else if (const char* v = value_of("--budget-ms=")) {
            if (!parse_u64(v, &options->budget_ms)) {
                return false;
            }
        } else if (const char* v = value_of("--repro=")) {
            options->repro = v;
        } else if (const char* v = value_of("--corpus=")) {
            options->corpus = v;
        } else if (const char* v = value_of("--corpus-out=")) {
            options->corpus_out = v;
        } else if (const char* v = value_of("--mutate=")) {
            options->mutate = v;
        } else if (arg == "--expect-mismatch") {
            options->expect_mismatch = true;
        } else if (arg == "--help" || arg == "-h") {
            return false;
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
            return false;
        }
    }
    return true;
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: fuzz_harness [--seed=N] [--cases=N] [--budget-ms=N]\n"
        "                    [--repro=FILE.json] [--corpus=DIR]\n"
        "                    [--corpus-out=DIR] [--mutate=NAME]\n"
        "                    [--expect-mismatch]\n"
        "mutations: none, add-off-by-one, compare-inverted,"
        " store-drop-byte,\n"
        "           drop-one-branch, double-join\n");
}

bool
load_case(const std::filesystem::path& path, FuzzCase* out)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return false;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string error;
    if (!FuzzCase::from_json(buffer.str(), out, &error)) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
        return false;
    }
    return true;
}

/**
 * Copy the environment's plane modes into a generated case, so the
 * printed case and a failure's reproducer replay with the planes they
 * ran under. validate_env() has passed, so the reads cannot fail.
 */
void
stamp_env_planes(FuzzCase* c)
{
    pulse::knobs::Value placement;
    pulse::knobs::Value replication;
    pulse::knobs::read(pulse::knobs::Knob::kPlacement, &placement,
                       nullptr);
    pulse::knobs::read(pulse::knobs::Knob::kReplication, &replication,
                       nullptr);
    if (placement.modes != 0) {
        c->placement = placement.modes == pulse::knobs::kPlacementElastic
                           ? "elastic"
                           : "static";
    }
    if (replication.modes != 0) {
        c->replication =
            replication.modes == pulse::knobs::kReplicationK3 ? "k3"
                                                               : "k2";
    }
}

/**
 * Run one case and add its seam counters to @p seams; on failure
 * print + (optionally) minimize and save.
 */
bool
run_one(const FuzzCase& c, const Options& options, bool minimize,
        FuzzResult* seams)
{
    const FuzzResult result = pulse::check::run_case(c);
    seams->migrations_started += result.migrations_started;
    seams->migrations_completed += result.migrations_completed;
    seams->migrations_aborted += result.migrations_aborted;
    seams->retransmits += result.retransmits;
    seams->retries += result.retries;
    seams->failovers += result.failovers;
    if (result.ok) {
        std::printf("ok   %s (exact=%llu weak=%llu)\n",
                    c.to_json().c_str(),
                    static_cast<unsigned long long>(result.oracle_exact),
                    static_cast<unsigned long long>(result.oracle_weak));
        return true;
    }
    std::printf("FAIL %s\n     %s\n", c.to_json().c_str(),
                result.message.c_str());
    if (minimize) {
        const FuzzCase minimized = pulse::check::minimize_case(c);
        const std::filesystem::path dir =
            options.corpus_out.empty()
                ? std::filesystem::path(".")
                : std::filesystem::path(options.corpus_out);
        const std::filesystem::path repro =
            dir / ("fuzz_repro_seed" + std::to_string(minimized.seed) +
                   ".json");
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        std::ofstream out(repro);
        out << minimized.to_json() << "\n";
        std::printf("     minimized reproducer: %s\n     -> %s\n",
                    minimized.to_json().c_str(), repro.c_str());
    }
    return false;
}

}  // namespace

int
main(int argc, char** argv)
{
    Options options;
    if (!parse_args(argc, argv, &options)) {
        usage();
        return 2;
    }
    std::string knob_error;
    if (!pulse::knobs::validate_env(&knob_error)) {
        std::fprintf(stderr, "%s\n", knob_error.c_str());
        return 2;
    }

    if (!options.mutate.empty()) {
        pulse::isa::InterpreterMutation mutation;
        if (!pulse::isa::mutation_from_name(options.mutate.c_str(),
                                            &mutation)) {
            std::fprintf(stderr, "unknown mutation: %s\n",
                         options.mutate.c_str());
            usage();
            return 2;
        }
        pulse::isa::set_interpreter_mutation(mutation);
    }

    std::uint64_t failures = 0;
    std::uint64_t executed = 0;
    FuzzResult seams;
    const auto start = std::chrono::steady_clock::now();
    auto budget_left = [&] {
        if (options.budget_ms == 0) {
            return true;
        }
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - start)
                .count();
        return static_cast<std::uint64_t>(elapsed) < options.budget_ms;
    };
    // Mutation runs assert the oracle *catches* the bug — don't spend
    // time shrinking cases whose failure is intentional.
    const bool minimize = options.mutate.empty();

    if (!options.repro.empty()) {
        FuzzCase c;
        if (!load_case(options.repro, &c)) {
            return 2;
        }
        executed++;
        if (!run_one(c, options, minimize, &seams)) {
            failures++;
        }
    } else if (!options.corpus.empty()) {
        std::vector<std::filesystem::path> files;
        for (const auto& entry :
             std::filesystem::directory_iterator(options.corpus)) {
            if (entry.path().extension() == ".json") {
                files.push_back(entry.path());
            }
        }
        std::sort(files.begin(), files.end());
        for (const auto& path : files) {
            if (!budget_left()) {
                std::printf("budget exhausted after %llu cases\n",
                            static_cast<unsigned long long>(executed));
                break;
            }
            FuzzCase c;
            if (!load_case(path, &c)) {
                return 2;
            }
            executed++;
            if (!run_one(c, options, minimize, &seams)) {
                failures++;
            }
        }
    } else {
        for (std::uint64_t i = 0; i < options.cases; i++) {
            if (!budget_left()) {
                std::printf("budget exhausted after %llu cases\n",
                            static_cast<unsigned long long>(executed));
                break;
            }
            FuzzCase c = pulse::check::random_case(options.seed + i);
            stamp_env_planes(&c);
            if (!options.corpus_out.empty()) {
                std::error_code ec;
                std::filesystem::create_directories(options.corpus_out,
                                                    ec);
                const std::filesystem::path path =
                    std::filesystem::path(options.corpus_out) /
                    ("fuzz_seed" + std::to_string(c.seed) + ".json");
                std::ofstream out(path);
                out << c.to_json() << "\n";
            }
            executed++;
            if (!run_one(c, options, minimize, &seams)) {
                failures++;
                if (!options.expect_mismatch) {
                    break;  // reproducer already written
                }
            }
        }
    }

    // CI's migration-soak gate greps this line; keep it as it is.
    std::printf("%llu case(s), %llu failure(s), %llu migration(s) "
                "started\n",
                static_cast<unsigned long long>(executed),
                static_cast<unsigned long long>(failures),
                static_cast<unsigned long long>(seams.migrations_started));
    std::printf("seams: %llu migration(s) completed, %llu aborted, "
                "%llu retransmit(s), %llu retry(ies), %llu "
                "failover(s)\n",
                static_cast<unsigned long long>(seams.migrations_completed),
                static_cast<unsigned long long>(seams.migrations_aborted),
                static_cast<unsigned long long>(seams.retransmits),
                static_cast<unsigned long long>(seams.retries),
                static_cast<unsigned long long>(seams.failovers));
    if (options.expect_mismatch) {
        if (failures == 0) {
            std::fprintf(stderr,
                         "expected the armed mutation to be caught, "
                         "but every case passed\n");
            return 1;
        }
        return 0;
    }
    return failures == 0 ? 0 : 1;
}
