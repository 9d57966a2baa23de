/**
 * @file
 * Functional execution of pulse ISA iterations.
 *
 * The Workspace mirrors the accelerator's per-iterator register state
 * (section 4.2.1): the cur_ptr register, the scratch_pad register
 * vector, the data register vector filled by the iteration's LOAD, and
 * the comparison flags. run_iteration() executes the *logic* portion of
 * one iteration — everything after the LOAD — exactly as the logic
 * pipeline would, and reports how the iteration ended plus any STOREs
 * the memory pipeline must apply.
 *
 * Every timed execution path (accelerator model, RPC CPU model, client
 * fallback) funnels through this interpreter, so all systems compute
 * identical results by construction and differ only in timing. It
 * executes the micro-ops each Program decodes once at construction
 * (micro_op.h), never the Instruction array itself.
 */
#ifndef PULSE_ISA_INTERPRETER_H
#define PULSE_ISA_INTERPRETER_H

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.h"
#include "isa/program.h"

namespace pulse::isa {

/** Per-iterator register state (one accelerator workspace). */
struct Workspace
{
    VirtAddr cur_ptr = kNullAddr;
    int flags = 0;  ///< COMPARE result: sign of (src1 - src2)
    /** Fork depth of the executing traversal (0 = the root). SPAWN
     *  faults once this reaches the program's max_spawn_depth. */
    std::uint32_t spawn_depth = 0;
    std::vector<std::uint8_t> scratch;
    std::vector<std::uint8_t> data;

    /** Size scratch/data for @p program. */
    void configure(const Program& program);

    /** Zero-extend read of a scalar operand. Register widths other
     *  than 1/2/4/8 and spans past the vector panic (verifier bug). */
    std::uint64_t read(const Operand& operand) const;

    /** Truncating write to a scalar operand (must be writable; same
     *  width and range rules as read()). */
    void write(const Operand& operand, std::uint64_t value);
};

/** How an iteration's logic ended. */
enum class IterEnd : std::uint8_t {
    kNextIter,  ///< continue: cur_ptr holds the next pointer
    kReturn,    ///< traversal complete; scratch_pad is the result
    kFault,     ///< execution fault (e.g. divide by zero)
    kJoin,      ///< own chain done; request completes when the spawned
                ///< subtrees have all reduced (fork/join extension)
};

/** Faults the logic pipeline can raise. */
enum class ExecFault : std::uint8_t {
    kNone,
    kDivideByZero,
    kIllegalInstruction,
    kSpawnDepth,     ///< SPAWN at the program's max_spawn_depth
    kSpawnOverflow,  ///< spawn-list capacity or fork-node guard hit
};

/** A STORE captured during the iteration, for the memory pipeline. */
struct PendingStore
{
    std::uint64_t mem_offset = 0;   ///< relative to iteration-start cur_ptr
    std::uint32_t data_offset = 0;  ///< source offset in data registers
    std::uint32_t length = 0;
};

/**
 * A sub-traversal the iteration SPAWNed. The argument bytes are
 * captured at spawn time (later instructions may overwrite the source
 * scratch window) and land at [arg_offset, arg_offset+arg_length) of
 * the child's otherwise-zeroed scratch_pad.
 */
struct SpawnRecord
{
    VirtAddr start_ptr = kNullAddr;
    std::uint16_t arg_offset = 0;
    std::uint16_t arg_length = 0;
    std::uint8_t args[kSpawnArgBytes] = {};
};

/** Result of one iteration's logic execution. */
struct IterationResult
{
    IterEnd end = IterEnd::kReturn;
    ExecFault fault = ExecFault::kNone;
    std::uint32_t instructions_executed = 0;
    std::vector<PendingStore> stores;
    std::vector<SpawnRecord> spawns;
};

/**
 * Atomic compare-and-swap callback for the kCas extension: swap the
 * 64-bit word at @p mem_offset (relative to the iteration's cur_ptr)
 * from @p expected to @p desired; returns whether the swap happened.
 * Execution sites guarantee event-level atomicity.
 */
using CasFn = std::function<bool(std::uint64_t mem_offset,
                                 std::uint64_t expected,
                                 std::uint64_t desired)>;

/**
 * Execute the logic portion of one iteration of @p program over
 * @p workspace. Assumes the data registers already hold the LOADed
 * bytes. The program must have passed verify(). @p cas backs the
 * kCas extension; sites without one fault on kCas.
 */
IterationResult run_iteration(const Program& program,
                              Workspace& workspace,
                              const CasFn& cas = nullptr);

/**
 * Deliberate bugs injectable into run_iteration for mutation-testing
 * the golden oracle (docs/TESTING.md): the check/ reference
 * interpreter is an independent implementation, so any of these must
 * surface as an oracle mismatch. Never enabled in normal runs.
 */
enum class InterpreterMutation : std::uint8_t {
    kNone,             ///< faithful semantics
    kAddOffByOne,      ///< ADD produces src1 + src2 + 1
    kCompareInverted,  ///< COMPARE flags get the opposite sign
    kStoreDropByte,    ///< STORE writes one byte short
    /**
     * Fork-aware mutations: the first SPAWN an iteration executes is
     * silently skipped (a branch goes missing from the DAG), or every
     * SPAWN emits its record twice (the duplicate is a *new* branch at
     * the engine, so the join double-counts — a same-branch duplicate
     * would be absorbed by exactly-once dedup and prove nothing).
     */
    kSpawnDropBranch,  ///< "drop-one-branch"
    kSpawnDoubleJoin,  ///< "double-join"
};

/** Set the active mutation (process-wide; tests/tools only). */
void set_interpreter_mutation(InterpreterMutation mutation);

/** Currently active mutation. */
InterpreterMutation interpreter_mutation();

/**
 * Parse a mutation name ("none", "add-off-by-one",
 * "compare-inverted", "store-drop-byte", "drop-one-branch",
 * "double-join"); false on unknown names.
 */
bool mutation_from_name(const char* name, InterpreterMutation* out);

}  // namespace pulse::isa

#endif  // PULSE_ISA_INTERPRETER_H
