/**
 * @file
 * Seeded ISA/workload fuzzer (docs/TESTING.md).
 *
 * A FuzzCase is a tiny, fully-deterministic description of one checked
 * run — every byte of behaviour derives from (mode, seed, ds, fault,
 * ops, concurrency, nodes), so a failing case *is* its reproducer. Two
 * modes:
 *
 *   - **workload**: build one of the six data-structure adapters in a
 *     real cluster, drive a seeded mix of reads / writes / CAS
 *     increments through the pulse path with the golden oracle and the
 *     invariant registry enabled, crossed with a named fault-plane
 *     profile, then run the quiesce audit;
 *   - **program**: generate a random *type-valid* ISA program (it must
 *     pass Program::verify), run it through the production interpreter
 *     (isa::run_traversal with GlobalMemory hooks) and through the
 *     independent reference interpreter over an identically-built
 *     second memory, and diff outcome + memory bytes;
 *   - **fork**: build a random pointer tree (bounded fan-out and
 *     depth, with pruned null branches exercising the conditional-
 *     fork idiom) in a real cluster and drive a type-valid SPAWN /
 *     REDUCE / JOIN program over it through the full engine DAG path
 *     with the golden oracle armed — forking programs cannot run on
 *     the bare run_traversal path, which has no fork coordinator.
 *
 * On failure the harness (tools/fuzz_harness) minimizes the case —
 * fewer ops, one client, one node, healthy network — and emits the
 * smallest still-failing JSON, which tests/test_fuzz_repros.cc replays
 * from the committed corpus.
 */
#ifndef PULSE_CHECK_FUZZER_H
#define PULSE_CHECK_FUZZER_H

#include <cstdint>
#include <string>

#include "faults/fault_config.h"
#include "isa/program.h"

namespace pulse::check {

/** The six fuzzed data structures (workload mode). */
inline constexpr const char* kFuzzDataStructures[] = {
    "hash", "list", "bptree", "bst", "balanced", "prox",
};
inline constexpr std::size_t kNumFuzzDataStructures = 6;

/** Named fault-plane profiles a case can cross with. "nemesis" is the
 *  scripted crash/recover schedule (src/faults/nemesis.h): memory
 *  nodes black out or stall mid-case, exercising engine give-ups and —
 *  when PULSE_REPLICATION opts the plane in — detection and failover
 *  under the oracle. */
inline constexpr const char* kFuzzFaultConfigs[] = {
    "healthy", "loss", "dup", "burst", "chaos", "nemesis",
};
inline constexpr std::size_t kNumFuzzFaultConfigs = 6;

/** One deterministic fuzz case (== its own reproducer). */
struct FuzzCase
{
    std::uint64_t seed = 1;
    std::string mode = "workload";  ///< "workload" | "program" | "fork"
    std::string ds = "hash";        ///< workload mode only
    std::string fault = "healthy";  ///< named fault profile
    std::uint32_t ops = 64;         ///< operations to drive
    std::uint32_t concurrency = 4;  ///< closed-loop window
    std::uint32_t nodes = 2;        ///< memory nodes
    std::uint32_t forks = 0;        ///< fork mode: SPAWN fan-out (1-4)
    std::uint32_t fork_depth = 2;   ///< fork mode: DAG depth (1-3)

    /**
     * Workload mode: >= 2 runs the case through the serving plane
     * (src/serve) — ops round-robin across this many tenants under
     * WDRR admission, with quota-capped batch tenants and tight queue
     * caps, so QoS throttling, quota-release readmission and typed
     * load shedding race the fuzzed traversals under the oracle and
     * invariants. 0 (the default) leaves the plane off.
     */
    std::uint32_t tenants = 0;

    /** Flat single-line JSON encoding. */
    std::string to_json() const;

    /**
     * Parse the flat JSON produced by to_json (tolerates whitespace
     * and reordered keys; unknown keys are ignored). Returns false
     * with @p error set on malformed input, unknown enum values, or a
     * number key whose value is not a whole number that fits its
     * field (the error names the key).
     */
    static bool from_json(const std::string& text, FuzzCase* out,
                          std::string* error = nullptr);
};

/** Outcome of one executed case. */
struct FuzzResult
{
    bool ok = true;
    std::uint64_t violations = 0;         ///< invariant + oracle
    std::uint64_t oracle_exact = 0;       ///< exact comparisons run
    std::uint64_t oracle_weak = 0;        ///< weak comparisons run
    std::string message;                  ///< first diagnostics
};

/**
 * The named fault profile for @p name, seeded from @p seed. @p known
 * (if non-null) reports whether the name was recognized; unknown names
 * yield the healthy (inactive) config.
 */
faults::FaultConfig fuzz_fault_config(const std::string& name,
                                      std::uint64_t seed,
                                      bool* known = nullptr);

/**
 * Derive a random case from @p seed: mode, structure, fault profile
 * and shape all drawn from the seeded generator.
 */
FuzzCase random_case(std::uint64_t seed);

/**
 * Generate a random type-valid ISA program from @p seed. The result
 * always passes Program::verify (run_program_case re-checks and fails
 * the case on a generator regression).
 */
isa::Program random_program(std::uint64_t seed);

/**
 * Generate a type-valid fork/join program from @p seed: one visit
 * accumulates the node's value into the reduce lane, then — while the
 * hops-remaining argument word is positive — SPAWNs up to @p fanout
 * children from the node's pointer slots (null slots skip) at hops-1.
 * The REDUCE operator is drawn from the full commutative set. Always
 * passes Program::verify with max_spawn_depth @p depth.
 */
isa::Program random_fork_program(std::uint64_t seed,
                                 std::uint32_t fanout,
                                 std::uint32_t depth);

/** Execute one case (dispatches on mode). */
FuzzResult run_case(const FuzzCase& c);

/**
 * Greedy minimizer: starting from a failing @p c, try fewer ops, one
 * in-flight op, one node, then a healthy network, keeping each
 * simplification that still fails. Returns the smallest failing case
 * (or @p c itself if nothing simpler fails).
 */
FuzzCase minimize_case(const FuzzCase& c);

}  // namespace pulse::check

#endif  // PULSE_CHECK_FUZZER_H
