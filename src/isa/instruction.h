/**
 * @file
 * The pulse instruction set (paper Table 1, section 4.1).
 *
 * pulse adapts a restricted RISC subset with exactly the operation
 * classes a pointer traversal needs:
 *   - Memory:   LOAD (one aggregated load at the top of each iteration,
 *               up to 256 B at cur_ptr), STORE (write-back into the
 *               current node).
 *   - ALU:      ADD SUB MUL DIV AND OR NOT.
 *   - Register: MOVE.
 *   - Branch:   COMPARE + JUMP_{EQ,NEQ,LT,GT,LE,GE}; jumps may only go
 *               *forward* — the only backward edge is the implicit one
 *               created by NEXT_ITER, which restarts the iteration. This
 *               is what makes per-iteration execution time statically
 *               bounded (no unbounded loops, section 3.1).
 *   - Terminal: RETURN (finish, yield scratch_pad), NEXT_ITER.
 *
 * Operands address one of three storage spaces in the workspace: the
 * cur_ptr register, the scratch_pad register vector, and the data
 * register vector holding the bytes LOADed this iteration. All offsets
 * are static, so the verifier can bounds-check every access at offload
 * time (section 4.1's static analysis).
 */
#ifndef PULSE_ISA_INSTRUCTION_H
#define PULSE_ISA_INSTRUCTION_H

#include <cstdint>
#include <string>

#include "common/types.h"

namespace pulse::isa {

/** Maximum bytes a single aggregated LOAD may fetch (paper: 256 B). */
inline constexpr std::uint32_t kMaxLoadBytes = 256;

/** Default scratch_pad size (paper: 4 KB, configurable). */
inline constexpr std::uint32_t kDefaultScratchBytes = 4096;

/** Default per-request iteration cap (MAX_ITER, section 3.1). */
inline constexpr std::uint32_t kDefaultMaxIters = 512;

/**
 * Fork/join extension limits (ROADMAP "Parallel intra-request
 * traversals"). A forking program may contain at most
 * kMaxSpawnsPerVisit SPAWN instructions — jumps are forward-only, so
 * one iteration executes each SPAWN at most once, which statically
 * bounds the records a visit can emit to the packet SpawnList's
 * capacity. kSpawnArgBytes bounds the argument window a SPAWN copies
 * from the parent's scratch_pad into the child's (same offsets, so
 * scratch-layout constants stay uniform across the DAG).
 */
inline constexpr std::uint32_t kMaxSpawnsPerVisit = 8;
inline constexpr std::uint32_t kSpawnArgBytes = 32;

/** Maximum 64-bit accumulator lanes a REDUCE may declare. */
inline constexpr std::uint32_t kMaxReduceLanes = 8;

/** Hard ceiling on Program::max_spawn_depth (u8 in the wire header). */
inline constexpr std::uint32_t kMaxSpawnDepthLimit = 7;

/** Per-root cap on total forked sub-traversals (DAG termination: a
 *  request terminates iff every spawn subtree does, and the subtree
 *  node count is bounded by this guard — the dynamic analogue of the
 *  kGlobalIterationGuard on chains). */
inline constexpr std::uint32_t kForkNodeGuard = 4096;

/**
 * Does [offset, offset+length) lie within @p limit bytes? Written so
 * that no static offset, however large, wraps the sum around.
 */
constexpr bool
span_fits(std::uint64_t offset, std::uint64_t length, std::uint64_t limit)
{
    return offset <= limit && length <= limit - offset;
}

/** Operation codes. */
enum class Opcode : std::uint8_t {
    kLoad,      ///< data[0:len) = mem[cur_ptr : cur_ptr+len)
    kStore,     ///< mem[cur_ptr+off : +len) = data[off : off+len)
    kAdd,
    kSub,
    kMul,
    kDiv,
    kAnd,
    kOr,
    kNot,
    kMove,
    kCompare,   ///< set flags from (src1 - src2), signed 64-bit
    kJump,      ///< conditional forward jump using the flags
    kReturn,    ///< terminate traversal; scratch_pad is the result
    kNextIter,  ///< commit cur_ptr and start the next iteration
    /**
     * Extension (supplementary section B, "enabling near-memory
     * synchronization"): atomic compare-and-swap of the 64-bit word
     * at mem[cur_ptr + dst] — if it equals src1, write src2. Flags
     * are set EQ on success, NEQ on failure, so programs retry with
     * JUMP_NEQ. Not part of the paper's Table 1; execution sites that
     * lack an atomic path fault on it.
     */
    kCas,
    /**
     * Fork/join extension (ROADMAP "Parallel intra-request
     * traversals"; the Tiara/emu-style migratory recursive-spawn
     * idiom). SPAWN emits a sub-traversal record: src1 is the child's
     * start pointer (a null pointer skips the spawn — the conditional-
     * fork idiom, mirroring the null-page LOAD semantics), and dst is
     * a scratch_pad window [offset, offset+width) whose bytes are
     * captured *at spawn time* and placed at the same offsets in the
     * child's otherwise-zeroed scratch_pad. The child executes the
     * same program from the spawned pointer, one fork level deeper;
     * spawning at max_spawn_depth faults.
     */
    kSpawn,
    /**
     * Declares the program's commutative join accumulator: dst(imm) is
     * the scratch_pad byte offset of the accumulator lanes, src1(imm)
     * the lane count (64-bit lanes), src2(imm) the ReduceOp. When a
     * forked child completes, each of its accumulator lanes is folded
     * into the parent's with the declared operator. Commutativity +
     * associativity make the join result independent of branch
     * completion order, which is what lets the differential oracle
     * gate forked traversals exactly. At runtime REDUCE is a no-op
     * (the declaration is consumed by static analysis).
     */
    kReduce,
    /**
     * Terminal for forking programs: ends this traversal's own chain
     * and completes the request once every spawned subtree has
     * completed and reduced. A JOIN with no outstanding branches
     * completes immediately (how fork leaves terminate).
     */
    kJoin,
};

/**
 * Commutative + associative fold operators for kReduce. The identity
 * element seeds engine-side accumulators, so partial folds compose in
 * any completion order. MIN/MAX are unsigned (matching the ISA's
 * zero-extended operand reads).
 */
enum class ReduceOp : std::uint8_t {
    kAdd,
    kAnd,
    kOr,
    kXor,
    kMin,
    kMax,
};

/** Identity element of @p op (the accumulator's initial lane value). */
std::uint64_t reduce_identity(ReduceOp op);

/** Fold @p value into @p acc with @p op. */
std::uint64_t reduce_apply(ReduceOp op, std::uint64_t acc,
                           std::uint64_t value);

/** Mnemonic for @p op ("ADD", "AND", ...). */
const char* reduce_op_name(ReduceOp op);

/** Parse a reduce-op mnemonic (case-sensitive); false when unknown. */
bool reduce_op_from_name(const char* name, ReduceOp* out);

/** Branch conditions for kJump. */
enum class Cond : std::uint8_t {
    kAlways,  ///< assembler sugar: unconditional forward jump
    kEq,
    kNeq,
    kLt,
    kGt,
    kLe,
    kGe,
};

/** Operand storage spaces. */
enum class OperandKind : std::uint8_t {
    kNone,     ///< unused operand slot
    kImm,      ///< 64-bit immediate
    kCurPtr,   ///< the cur_ptr register
    kScratch,  ///< scratch_pad[offset : offset+width)
    kData,     ///< data[offset : offset+width)
};

/**
 * One operand. Register-vector operands carry a static byte offset and
 * an access width; scalar accesses (ALU/COMPARE/scalar MOVE) use widths
 * of 1, 2, 4 or 8 bytes, read zero-extended to 64 bits and written
 * truncating. MOVE additionally supports *register-vector* transfers of
 * up to 256 bytes between the scratch_pad and data vectors (the
 * workspace is register-vector storage, section 4.2.1), which is how an
 * iterator returns a whole value object in one instruction.
 */
struct Operand
{
    OperandKind kind = OperandKind::kNone;
    std::uint16_t width = 8;   // bytes; meaningful for kScratch/kData
    std::uint64_t value = 0;   // immediate value, or byte offset

    friend bool operator==(const Operand&, const Operand&) = default;
};

/** Operand constructors (kept terse: they appear in every program). */
constexpr Operand
imm(std::uint64_t value)
{
    return Operand{OperandKind::kImm, 8, value};
}

/** scratch_pad[offset : offset+width). */
constexpr Operand
sp(std::uint32_t offset, std::uint16_t width = 8)
{
    return Operand{OperandKind::kScratch, width, offset};
}

/** data[offset : offset+width). */
constexpr Operand
dat(std::uint32_t offset, std::uint16_t width = 8)
{
    return Operand{OperandKind::kData, width, offset};
}

/** The cur_ptr register. */
constexpr Operand
cur()
{
    return Operand{OperandKind::kCurPtr, 8, 0};
}

/** No operand. */
constexpr Operand
none()
{
    return Operand{OperandKind::kNone, 0, 0};
}

/** One decoded instruction. */
struct Instruction
{
    Opcode op = Opcode::kReturn;
    Cond cond = Cond::kAlways;   // for kJump
    std::uint32_t target = 0;    // jump target (instruction index)
    Operand dst;
    Operand src1;
    Operand src2;

    friend bool operator==(const Instruction&,
                           const Instruction&) = default;
};

/** Human-readable opcode mnemonic. */
const char* opcode_name(Opcode op);

/** Human-readable condition suffix ("EQ", ...). */
const char* cond_name(Cond cond);

/** Render one operand in assembler syntax. */
std::string operand_to_string(const Operand& operand);

}  // namespace pulse::isa

#endif  // PULSE_ISA_INSTRUCTION_H
