/**
 * @file
 * Program container and verifier for pulse ISA traversal code.
 *
 * A Program is the unit the offload engine ships to accelerators: the
 * per-iteration instruction sequence plus execution limits (scratch_pad
 * size, iteration cap). verify() performs the structural checks that
 * make accelerator execution statically boundable (section 4.1):
 * forward-only jumps, one LOAD at instruction 0, every operand offset
 * within its register vector, and every path terminated by RETURN or
 * NEXT_ITER.
 */
#ifndef PULSE_ISA_PROGRAM_H
#define PULSE_ISA_PROGRAM_H

#include <cstdint>
#include <string>
#include <vector>

#include "isa/instruction.h"
#include "isa/micro_op.h"

namespace pulse::isa {

/** A verified-or-not pulse traversal program. */
class Program
{
  public:
    Program() : Program({}, kDefaultScratchBytes, kDefaultMaxIters) {}

    /**
     * Build from raw instructions.
     * @param code         per-iteration instruction sequence
     * @param scratch_bytes scratch_pad size the program assumes
     * @param max_iters    MAX_ITER for this program
     */
    Program(std::vector<Instruction> code, std::uint32_t scratch_bytes,
            std::uint32_t max_iters,
            std::uint32_t max_spawn_depth = 0);

    const std::vector<Instruction>& code() const { return code_; }
    std::uint32_t scratch_bytes() const { return scratch_bytes_; }
    std::uint32_t max_iters() const { return max_iters_; }

    /**
     * Fork-depth budget: a traversal at depth d may SPAWN only while
     * d < max_spawn_depth. 0 (the default) keeps SPAWN illegal — the
     * sequential ISA — and encodes bit-identically to programs built
     * before the fork/join extension existed.
     */
    std::uint32_t max_spawn_depth() const { return max_spawn_depth_; }

    /** Number of instructions. */
    std::uint32_t size() const
    {
        return static_cast<std::uint32_t>(code_.size());
    }

    /**
     * Bytes the iteration's aggregated LOAD fetches (0 when the program
     * has no LOAD — e.g. a pure compute epilogue).
     */
    std::uint32_t load_bytes() const;

    /**
     * Structural verification; returns true when the program is valid
     * for accelerator execution. On failure @p error (if non-null) gets
     * a human-readable reason.
     */
    bool verify(std::string* error = nullptr) const;

    /** Disassemble to assembler text. */
    std::string disassemble() const;

    /**
     * The micro-ops decoded from code() at construction (micro_op.h).
     * Only run_iteration() reads them.
     */
    const DecodedProgram& decoded() const { return decoded_; }

    /** Equal code and limits (the decoded form follows from them). */
    friend bool
    operator==(const Program& a, const Program& b)
    {
        return a.code_ == b.code_ && a.scratch_bytes_ == b.scratch_bytes_ &&
               a.max_iters_ == b.max_iters_ &&
               a.max_spawn_depth_ == b.max_spawn_depth_;
    }

  private:
    std::vector<Instruction> code_;
    std::uint32_t scratch_bytes_ = kDefaultScratchBytes;
    std::uint32_t max_iters_ = kDefaultMaxIters;
    std::uint32_t max_spawn_depth_ = 0;
    DecodedProgram decoded_;
};

/**
 * Incremental program builder with label resolution.
 *
 * Data-structure adapters express next()/end() logic through this API;
 * labels may be referenced before they are placed (forward jumps only,
 * which verify() enforces anyway).
 */
class ProgramBuilder
{
  public:
    ProgramBuilder() = default;

    /** Aggregated load of @p bytes at cur_ptr (must be instruction 0). */
    ProgramBuilder& load(std::uint32_t bytes);

    /** Store data[data_off : +len) to mem[cur_ptr+mem_off : +len). */
    ProgramBuilder& store(std::uint32_t mem_off, std::uint32_t data_off,
                          std::uint32_t len);

    ProgramBuilder& add(Operand dst, Operand a, Operand b);
    ProgramBuilder& sub(Operand dst, Operand a, Operand b);
    ProgramBuilder& mul(Operand dst, Operand a, Operand b);
    ProgramBuilder& div(Operand dst, Operand a, Operand b);
    ProgramBuilder& band(Operand dst, Operand a, Operand b);
    ProgramBuilder& bor(Operand dst, Operand a, Operand b);
    ProgramBuilder& bnot(Operand dst, Operand a);
    ProgramBuilder& move(Operand dst, Operand src);

    /** COMPARE a, b: set flags from signed(a) - signed(b). */
    ProgramBuilder& compare(Operand a, Operand b);

    /** Conditional forward jump to @p label. */
    ProgramBuilder& jump(Cond cond, const std::string& label);
    ProgramBuilder& jump_eq(const std::string& label);
    ProgramBuilder& jump_neq(const std::string& label);
    ProgramBuilder& jump_lt(const std::string& label);
    ProgramBuilder& jump_gt(const std::string& label);
    ProgramBuilder& jump_le(const std::string& label);
    ProgramBuilder& jump_ge(const std::string& label);

    /** Unconditional forward jump (assembler sugar). */
    ProgramBuilder& jump_always(const std::string& label);

    /**
     * Extension: atomic CAS of mem[cur_ptr+mem_off] from @p expected
     * to @p desired; flags end EQ on success (supp. section B).
     */
    ProgramBuilder& cas(std::uint32_t mem_off, Operand expected,
                        Operand desired);

    ProgramBuilder& next_iter();
    ProgramBuilder& ret();

    /**
     * Fork/join extension: spawn a child traversal at @p start_ptr,
     * seeding its scratch_pad with this traversal's scratch bytes
     * [arg_off, arg_off+arg_len) at the same offsets.
     */
    ProgramBuilder& spawn(Operand start_ptr, std::uint32_t arg_off,
                          std::uint32_t arg_len);

    /** Declare the join accumulator: @p lanes 64-bit lanes at
     *  scratch_pad offset @p acc_off folded with @p op. */
    ProgramBuilder& reduce(ReduceOp op, std::uint32_t acc_off,
                           std::uint32_t lanes);

    /** Terminal for forking programs (see Opcode::kJoin). */
    ProgramBuilder& join();

    /** Override the fork-depth budget (default 0: no forking). */
    ProgramBuilder& max_spawn_depth(std::uint32_t depth);

    /** Bind @p label to the next instruction index. */
    ProgramBuilder& label(const std::string& label);

    /** Override scratch_pad size (default kDefaultScratchBytes). */
    ProgramBuilder& scratch_bytes(std::uint32_t bytes);

    /** Override MAX_ITER (default kDefaultMaxIters). */
    ProgramBuilder& max_iters(std::uint32_t iters);

    /**
     * Resolve labels and produce the program. Calls fatal() on dangling
     * labels (a programming error in the adapter, not a runtime input).
     */
    Program build() const;

  private:
    struct PendingJump
    {
        std::size_t index;
        std::string label;
    };

    ProgramBuilder& emit(Instruction instruction);

    std::vector<Instruction> code_;
    std::vector<PendingJump> pending_;
    std::vector<std::pair<std::string, std::uint32_t>> labels_;
    std::uint32_t scratch_bytes_ = kDefaultScratchBytes;
    std::uint32_t max_iters_ = kDefaultMaxIters;
    std::uint32_t max_spawn_depth_ = 0;
};

}  // namespace pulse::isa

#endif  // PULSE_ISA_PROGRAM_H
