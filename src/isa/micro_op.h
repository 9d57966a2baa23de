/**
 * @file
 * The decoded form of a pulse program, which run_iteration() executes.
 *
 * Program's constructor decodes its Instruction array once into one
 * MicroOp per instruction, at the same index, so jump targets carry
 * over unchanged. Decoding resolves every operand to a space, a byte
 * offset, an access width (1/2/4/8 bytes for scalars) and an
 * immediate, and checks every static offset+width against
 * scratch_bytes() or kMaxLoadBytes. The interpreter therefore reads
 * and writes at fixed widths with no per-access bounds check. An
 * operand that fails the check (only possible in a program that never
 * passed verify()) decodes to Slot::kOutOfRange and panics when its
 * instruction executes, never at decode time, so an unverified program
 * fails only on a path that uses the operand.
 *
 * Instruction stays the canonical form: the verifier, codec, assembler,
 * analysis and the check/ reference interpreter read Program::code(),
 * never this.
 */
#ifndef PULSE_ISA_MICRO_OP_H
#define PULSE_ISA_MICRO_OP_H

#include <cstdint>
#include <vector>

#include "isa/instruction.h"

namespace pulse::isa {

/** How a decoded operand is accessed. */
enum class Slot : std::uint8_t {
    kNone,        ///< unused operand slot: reads and writes panic
    kImm,         ///< the operand's immediate
    kCurPtr,      ///< the cur_ptr register
    kReg1,        ///< 1/2/4/8-byte scalar at offset in its register vector
    kReg2,
    kReg4,
    kReg8,
    kSpan,        ///< [offset, offset+width) of its register vector
    kOutOfRange,  ///< failed the decode-time bound: panics on use
};

/** The register vector a kReg1..kReg8 or kSpan operand addresses. */
enum class Space : std::uint8_t {
    kScratch,
    kData,
};

/** One decoded operand. */
struct MicroOperand
{
    Slot slot = Slot::kNone;
    Space space = Space::kScratch;
    std::uint16_t width = 0;   ///< bytes
    std::uint32_t offset = 0;  ///< byte offset in its register vector
    std::uint64_t imm = 0;     ///< the operand's raw value
};

/** Decoded operations; one per Opcode, with MOVE split by shape. */
enum class MicroCode : std::uint8_t {
    kIllegal,   ///< LOAD: only the memory pipeline performs it
    kStore,
    kAdd,
    kSub,
    kMul,
    kDiv,
    kAnd,
    kOr,
    kNot,
    kMove,      ///< scalar MOVE
    kMoveSpan,  ///< register-vector MOVE of dst.width bytes
    kCompare,
    kJump,
    kReturn,
    kNextIter,
    kSpawn,
    kReduce,    ///< no-op at runtime
    kJoin,
    kCas,
    kFellOff,   ///< sentinel one past the last instruction
};

/** One decoded instruction. */
struct MicroOp
{
    MicroCode code = MicroCode::kFellOff;
    /** kJump: bit sign(flags)+1 is set when the jump is taken (bit 0
     *  LT, bit 1 EQ, bit 2 GT). */
    std::uint8_t taken_mask = 0;
    std::uint32_t target = 0;  ///< kJump target, clamped to the sentinel
    MicroOperand dst;
    MicroOperand src1;
    MicroOperand src2;
};

/** A program's micro-ops plus what run_iteration() checks up front. */
struct DecodedProgram
{
    /** One MicroOp per instruction, then the kFellOff sentinel. */
    std::vector<MicroOp> ops;
    /** First micro-op of an iteration: 1 past a leading LOAD, else 0. */
    std::uint32_t entry = 0;
    /** One past the highest scratch_pad / data byte an in-range
     *  operand touches; the workspace vectors must cover these. */
    std::uint32_t scratch_extent = 0;
    std::uint32_t data_extent = 0;
};

/**
 * Decode one scalar operand against register vectors of
 * @p scratch_bytes and @p data_bytes. Widths other than 1/2/4/8 and
 * spans past either vector decode to Slot::kOutOfRange.
 */
MicroOperand decode_operand(const Operand& operand,
                            std::uint32_t scratch_bytes,
                            std::uint32_t data_bytes);

/** Decode @p code for a scratch_pad of @p scratch_bytes. */
DecodedProgram decode_micro_ops(const std::vector<Instruction>& code,
                                std::uint32_t scratch_bytes);

}  // namespace pulse::isa

#endif  // PULSE_ISA_MICRO_OP_H
