/**
 * @file
 * Unit tests for the pulse ISA: program verification, the builder,
 * assembler/disassembler, binary codec, interpreter semantics, and the
 * traversal engine (including null-page and MAX_ITER behaviour).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "isa/analysis.h"
#include "isa/assembler.h"
#include "isa/codec.h"
#include "isa/interpreter.h"
#include "isa/program.h"
#include "isa/traversal.h"

namespace pulse::isa {
namespace {

Program
simple_count_program(std::uint64_t until)
{
    // Counts iterations in sp[0]; never loads memory. Terminates when
    // sp[0] == until.
    ProgramBuilder b;
    b.add(sp(0), sp(0), imm(1))
        .compare(sp(0), imm(until))
        .jump_eq("done")
        .next_iter()
        .label("done")
        .ret();
    return b.build();
}

TEST(ProgramVerify, EmptyProgramRejected)
{
    Program program;
    std::string error;
    EXPECT_FALSE(program.verify(&error));
    EXPECT_NE(error.find("empty"), std::string::npos);
}

TEST(ProgramVerify, BackwardJumpRejected)
{
    std::vector<Instruction> code;
    code.push_back({.op = Opcode::kMove, .dst = sp(0), .src1 = imm(1)});
    code.push_back({.op = Opcode::kJump, .cond = Cond::kAlways,
                    .target = 0});
    code.push_back({.op = Opcode::kReturn});
    Program program(std::move(code), 64, 16);
    std::string error;
    EXPECT_FALSE(program.verify(&error));
    EXPECT_NE(error.find("backward"), std::string::npos);
}

TEST(ProgramVerify, LoadOnlyAtInstructionZero)
{
    std::vector<Instruction> code;
    code.push_back({.op = Opcode::kMove, .dst = sp(0), .src1 = imm(1)});
    code.push_back({.op = Opcode::kLoad, .src1 = imm(64)});
    code.push_back({.op = Opcode::kReturn});
    Program program(std::move(code), 64, 16);
    EXPECT_FALSE(program.verify());
}

TEST(ProgramVerify, LoadSizeBounds)
{
    for (const std::uint64_t len : {std::uint64_t{0},
                                    std::uint64_t{257}}) {
        std::vector<Instruction> code;
        code.push_back({.op = Opcode::kLoad, .src1 = imm(len)});
        code.push_back({.op = Opcode::kReturn});
        Program program(std::move(code), 64, 16);
        EXPECT_FALSE(program.verify()) << "len=" << len;
    }
}

TEST(ProgramVerify, ScratchOffsetOutOfRangeRejected)
{
    std::vector<Instruction> code;
    code.push_back({.op = Opcode::kMove, .dst = sp(60), .src1 = imm(1)});
    code.push_back({.op = Opcode::kReturn});
    Program program(std::move(code), 64, 16);
    EXPECT_FALSE(program.verify());  // 60 + 8 > 64
}

TEST(ProgramVerify, WrappingOffsetsRejected)
{
    // offset + length wraps to 4 in 64 bits, which a plain sum check
    // accepts.
    const std::uint64_t huge = ~std::uint64_t{0} - 3;
    const Operand wrapped{OperandKind::kScratch, 8, huge};
    std::vector<Instruction> code;
    code.push_back({.op = Opcode::kMove, .dst = wrapped, .src1 = imm(1)});
    code.push_back({.op = Opcode::kReturn});
    const Program program(code, 64, 16);
    EXPECT_FALSE(program.verify());
    Workspace ws;
    ws.configure(program);
    EXPECT_DEATH(ws.read(wrapped), "out of range");
    EXPECT_DEATH(run_iteration(program, ws), "operand write out of range");

    code[0] = {.op = Opcode::kStore, .dst = imm(0), .src1 = imm(huge),
               .src2 = imm(8)};
    EXPECT_FALSE(Program(code, 64, 16).verify());
}

TEST(ProgramVerify, FallOffEndRejected)
{
    std::vector<Instruction> code;
    code.push_back({.op = Opcode::kMove, .dst = sp(0), .src1 = imm(1)});
    Program program(std::move(code), 64, 16);
    EXPECT_FALSE(program.verify());
}

TEST(ProgramVerify, VectorMoveRequiresEqualVectorOperands)
{
    {
        std::vector<Instruction> code;
        code.push_back({.op = Opcode::kMove, .dst = sp(0, 64),
                        .src1 = dat(0, 64)});
        code.push_back({.op = Opcode::kReturn});
        Program ok(std::move(code), 128, 16);
        EXPECT_TRUE(ok.verify());
    }
    {
        std::vector<Instruction> code;
        code.push_back({.op = Opcode::kMove, .dst = sp(0, 64),
                        .src1 = imm(1)});
        code.push_back({.op = Opcode::kReturn});
        Program bad(std::move(code), 128, 16);
        EXPECT_FALSE(bad.verify());
    }
    {
        // Wide widths on ALU ops stay illegal.
        std::vector<Instruction> code;
        code.push_back({.op = Opcode::kAdd, .dst = sp(0, 64),
                        .src1 = sp(0, 64), .src2 = imm(1)});
        code.push_back({.op = Opcode::kReturn});
        Program bad(std::move(code), 128, 16);
        EXPECT_FALSE(bad.verify());
    }
}

TEST(Interpreter, AluAndFlags)
{
    ProgramBuilder b;
    b.move(sp(0), imm(21))
        .add(sp(0), sp(0), sp(0))     // 42
        .sub(sp(8), sp(0), imm(2))    // 40
        .mul(sp(16), sp(8), imm(3))   // 120
        .div(sp(24), sp(16), imm(7))  // 17
        .band(sp(32), sp(24), imm(0xF))
        .bor(sp(40), sp(32), imm(0x10))
        .bnot(sp(48), imm(0))
        .ret();
    Program program = b.build();
    ASSERT_TRUE(program.verify());

    Workspace ws;
    ws.configure(program);
    IterationResult result = run_iteration(program, ws);
    EXPECT_EQ(result.end, IterEnd::kReturn);
    EXPECT_EQ(ws.read(sp(0)), 42u);
    EXPECT_EQ(ws.read(sp(8)), 40u);
    EXPECT_EQ(ws.read(sp(16)), 120u);
    EXPECT_EQ(ws.read(sp(24)), 17u);
    EXPECT_EQ(ws.read(sp(32)), 0x1u);
    EXPECT_EQ(ws.read(sp(40)), 0x11u);
    EXPECT_EQ(ws.read(sp(48)), ~std::uint64_t{0});
}

TEST(Interpreter, DivideByZeroFaults)
{
    ProgramBuilder b;
    b.div(sp(0), imm(1), sp(8)).ret();
    Program program = b.build();
    Workspace ws;
    ws.configure(program);
    IterationResult result = run_iteration(program, ws);
    EXPECT_EQ(result.end, IterEnd::kFault);
    EXPECT_EQ(result.fault, ExecFault::kDivideByZero);
}

TEST(Interpreter, SignedCompareSemantics)
{
    // -1 < 1 under signed comparison even though 0xFF... > 1 unsigned.
    ProgramBuilder b;
    b.compare(imm(~std::uint64_t{0}), imm(1))
        .jump_lt("lt")
        .move(sp(0), imm(2))
        .ret()
        .label("lt")
        .move(sp(0), imm(1))
        .ret();
    Program program = b.build();
    ASSERT_TRUE(program.verify());
    Workspace ws;
    ws.configure(program);
    run_iteration(program, ws);
    EXPECT_EQ(ws.read(sp(0)), 1u);
}

TEST(Interpreter, NarrowWidthsZeroExtendAndTruncate)
{
    ProgramBuilder b;
    b.move(sp(0), imm(0x1122334455667788ull))
        .move(sp(8, 2), sp(0, 2))     // low 16 bits
        .move(sp(16), sp(8, 2))       // zero-extended read
        .ret();
    Program program = b.build();
    ASSERT_TRUE(program.verify());
    Workspace ws;
    ws.configure(program);
    run_iteration(program, ws);
    EXPECT_EQ(ws.read(sp(16)), 0x7788u);
}

TEST(Interpreter, WorkspaceAccessRejectsNonScalarWidths)
{
    Workspace ws;
    ws.configure(simple_count_program(1));
    // Widths 16-255 used to overflow the 8-byte value; 256 narrowed to
    // a 0-byte access.
    EXPECT_DEATH(ws.read(sp(0, 16)), "verifier bug");
    EXPECT_DEATH(ws.read(dat(0, 256)), "verifier bug");
    EXPECT_DEATH(ws.write(sp(0, 3), 1), "verifier bug");
    EXPECT_DEATH(ws.write(dat(8, 64), 1), "verifier bug");
    EXPECT_DEATH(ws.read(sp(kDefaultScratchBytes - 4, 8)), "out of range");
}

TEST(Interpreter, OutOfRangeOperandPanicsOnlyWhenExecuted)
{
    // Unverified: sp(4096) lies past a 64-byte scratch_pad.
    std::vector<Instruction> code;
    code.push_back({.op = Opcode::kCompare, .src1 = imm(1), .src2 = imm(1)});
    code.push_back({.op = Opcode::kJump, .cond = Cond::kEq, .target = 3});
    code.push_back({.op = Opcode::kMove, .dst = sp(4096), .src1 = imm(7)});
    code.push_back({.op = Opcode::kReturn});
    const Program skipped(code, 64, 16);
    ASSERT_FALSE(skipped.verify());
    Workspace ws;
    ws.configure(skipped);
    EXPECT_EQ(run_iteration(skipped, ws).end, IterEnd::kReturn);

    code[0].src2 = imm(2);  // now the jump falls through to the MOVE
    const Program executed(code, 64, 16);
    EXPECT_DEATH(run_iteration(executed, ws),
                 "operand write out of range \\(verifier bug\\)");
}

TEST(Interpreter, VectorMoveCopiesBytes)
{
    ProgramBuilder b;
    b.move(sp(0, 32), dat(8, 32)).ret();
    Program program = b.build();
    ASSERT_TRUE(program.verify());
    Workspace ws;
    ws.configure(program);
    for (int i = 0; i < 64; i++) {
        ws.data[i] = static_cast<std::uint8_t>(i);
    }
    run_iteration(program, ws);
    for (int i = 0; i < 32; i++) {
        EXPECT_EQ(ws.scratch[i], i + 8);
    }
}

TEST(Interpreter, StoreCapturedNotApplied)
{
    ProgramBuilder b;
    b.store(16, 0, 8).ret();
    Program program = b.build();
    ASSERT_TRUE(program.verify());
    Workspace ws;
    ws.configure(program);
    IterationResult result = run_iteration(program, ws);
    ASSERT_EQ(result.stores.size(), 1u);
    EXPECT_EQ(result.stores[0].mem_offset, 16u);
    EXPECT_EQ(result.stores[0].length, 8u);
}

TEST(Traversal, CountLoopTerminates)
{
    Program program = simple_count_program(10);
    MemoryHooks hooks;  // no loads in this program
    TraversalOutcome outcome =
        run_traversal(program, kNullAddr, ScratchBuffer{}, hooks);
    EXPECT_EQ(outcome.status, TraversalStatus::kDone);
    EXPECT_EQ(outcome.iterations, 10u);
}

TEST(Traversal, MaxIterStopsRunaway)
{
    Program program = simple_count_program(1000);
    MemoryHooks hooks;
    TraversalOutcome outcome =
        run_traversal(program, kNullAddr, ScratchBuffer{}, hooks, /*max_iters=*/16);
    EXPECT_EQ(outcome.status, TraversalStatus::kMaxIter);
    EXPECT_EQ(outcome.iterations, 16u);
    // Repeated continuations from the returned scratch (what the
    // offload engine does) complete the traversal.
    std::uint64_t total = outcome.iterations;
    int rounds = 0;
    while (outcome.status == TraversalStatus::kMaxIter) {
        outcome = run_traversal(program, outcome.final_ptr,
                                outcome.scratch, hooks, 16);
        total += outcome.iterations;
        ASSERT_LT(++rounds, 100);
    }
    EXPECT_EQ(outcome.status, TraversalStatus::kDone);
    EXPECT_EQ(total, 1000u);
}

TEST(Traversal, NullPointerLoadsZeros)
{
    // Program checks cur_ptr == 0 -> writes marker and returns.
    ProgramBuilder b;
    b.load(16)
        .compare(cur(), imm(0))
        .jump_eq("null")
        .move(cur(), imm(0))
        .next_iter()
        .label("null")
        .move(sp(0), dat(0))  // zeros from the null page
        .move(sp(8), imm(7))
        .ret();
    Program program = b.build();
    ASSERT_TRUE(program.verify());
    int loads = 0;
    MemoryHooks hooks;
    hooks.load = [&](VirtAddr, std::uint32_t, std::uint8_t*) {
        loads++;
        return true;
    };
    TraversalOutcome outcome =
        run_traversal(program, kNullAddr, ScratchBuffer{}, hooks);
    EXPECT_EQ(outcome.status, TraversalStatus::kDone);
    EXPECT_EQ(loads, 0);  // the null page never reaches the hook
    std::uint64_t marker = 0;
    std::memcpy(&marker, outcome.scratch.data() + 8, 8);
    EXPECT_EQ(marker, 7u);
}

TEST(Walk, GuardEndsOnlyAChainThatWouldResume)
{
    ProgramBuilder b;
    b.load(16).move(cur(), dat(0)).next_iter();
    Program program = b.build();
    Walk walk;
    const std::uint8_t init[2] = {1, 2};
    walk.seed(program, 0x1000, init, sizeof(init));
    EXPECT_EQ(walk.workspace.cur_ptr, 0x1000u);
    EXPECT_EQ(walk.workspace.scratch[1], 2u);

    IterationResult next;
    next.end = IterEnd::kNextIter;
    EXPECT_FALSE(walk.advance(next, 2).ended);
    const ChainEnd capped = walk.advance(next, 2);
    EXPECT_TRUE(capped.ended);
    EXPECT_EQ(capped.status, TraversalStatus::kMaxIter);

    // RETURN at the guard is still kDone: the chain end wins.
    IterationResult done;
    done.end = IterEnd::kReturn;
    const ChainEnd end = walk.advance(done, 3);
    EXPECT_EQ(end.status, TraversalStatus::kDone);
    EXPECT_EQ(walk.iterations, 3u);
}

TEST(Walk, OnlyANonNullLoadNeedsMemory)
{
    ProgramBuilder b;
    b.load(16).move(cur(), dat(0)).next_iter();
    Program program = b.build();
    Walk walk;
    walk.seed(program, 0x1000, nullptr, 0);
    EXPECT_FALSE(walk.null_page_load(16));
    EXPECT_TRUE(walk.null_page_load(0));  // nothing to load
    std::fill(walk.workspace.data.begin(), walk.workspace.data.end(),
              0xAB);
    walk.workspace.cur_ptr = kNullAddr;
    EXPECT_TRUE(walk.null_page_load(16));
    EXPECT_EQ(walk.workspace.data[0], 0u);
    EXPECT_EQ(walk.workspace.data[15], 0u);
    EXPECT_EQ(walk.workspace.data[16], 0xABu);  // past the load
}

TEST(Traversal, LoadFailureReportsMemFault)
{
    ProgramBuilder b;
    b.load(16).move(cur(), dat(0)).next_iter();
    Program program = b.build();
    ASSERT_TRUE(program.verify());
    MemoryHooks hooks;
    hooks.load = [](VirtAddr, std::uint32_t, std::uint8_t*) {
        return false;
    };
    TraversalOutcome outcome =
        run_traversal(program, 0x1000, ScratchBuffer{}, hooks);
    EXPECT_EQ(outcome.status, TraversalStatus::kMemFault);
}

TEST(Analysis, WorstPathUsesLongestBranch)
{
    // Branchy program: taken path is 2 logic instructions, fallthrough
    // is 5; worst path must be the fallthrough.
    ProgramBuilder b;
    b.compare(sp(0), imm(1))
        .jump_eq("short")
        .add(sp(8), sp(8), imm(1))
        .add(sp(8), sp(8), imm(1))
        .add(sp(8), sp(8), imm(1))
        .ret()
        .label("short")
        .ret();
    Program program = b.build();
    ProgramAnalysis analysis = analyze(program);
    ASSERT_TRUE(analysis.valid);
    // COMPARE, JUMP, ADD, ADD, ADD, RETURN
    EXPECT_EQ(analysis.worst_path_instructions, 6u);
}

TEST(Analysis, FootprintsAndFlags)
{
    ProgramBuilder b;
    b.load(64)
        .div(sp(0), dat(56), imm(2))
        .store(8, 0, 16)
        .move(sp(120), imm(1))
        .ret();
    Program program = b.build();
    ProgramAnalysis analysis = analyze(program);
    ASSERT_TRUE(analysis.valid) << analysis.error;
    EXPECT_EQ(analysis.load_bytes, 64u);
    EXPECT_EQ(analysis.max_data_ref, 64u);       // dat(56) + 8
    EXPECT_EQ(analysis.scratch_footprint, 128u); // sp(120) + 8
    EXPECT_TRUE(analysis.has_store);
    EXPECT_TRUE(analysis.has_div);
}

TEST(Analysis, EtaMatchesHandComputation)
{
    ProgramBuilder b;
    b.load(16)
        .compare(sp(0), dat(0))
        .jump_eq("done")
        .move(cur(), dat(8))
        .next_iter()
        .label("done")
        .ret();
    Program program = b.build();
    ProgramAnalysis analysis = analyze(program);
    ASSERT_TRUE(analysis.valid);
    // Worst path: COMPARE, JUMP, MOVE, NEXT_ITER = 4.
    EXPECT_EQ(analysis.worst_path_instructions, 4u);
    const Time t_i = nanos(1.0);
    EXPECT_EQ(compute_time(analysis, t_i), nanos(4.0));
    EXPECT_DOUBLE_EQ(compute_eta(analysis, t_i, nanos(100.0)), 0.04);
}

TEST(Codec, RoundTripPreservesProgram)
{
    ProgramBuilder b;
    b.load(256)
        .compare(sp(0), dat(0))
        .jump_eq("found")
        .compare(imm(0), dat(8))
        .jump_eq("notfound")
        .move(cur(), dat(8))
        .next_iter()
        .label("notfound")
        .move(sp(8), imm(0xDEADBEEFDEADBEEFull))
        .ret()
        .label("found")
        .move(sp(16, 240), dat(16, 240))
        .ret();
    b.scratch_bytes(264).max_iters(128);
    Program program = b.build();
    ASSERT_TRUE(program.verify());

    const auto bytes = encode_program(program);
    EXPECT_EQ(bytes.size(), encoded_size(program));
    const auto decoded = decode_program(bytes);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, program);
    EXPECT_TRUE(decoded->verify());
}

TEST(Codec, RejectsCorruptBuffers)
{
    ProgramBuilder b;
    b.move(sp(0), imm(1)).ret();
    Program program = b.build();
    auto bytes = encode_program(program);

    auto truncated = bytes;
    truncated.pop_back();
    EXPECT_FALSE(decode_program(truncated).has_value());

    auto bad_opcode = bytes;
    bad_opcode[8] = 0xFF;
    EXPECT_FALSE(decode_program(bad_opcode).has_value());

    EXPECT_FALSE(decode_program({}).has_value());
}

TEST(Codec, WireSizeSmallerThanDiagnostic)
{
    ProgramBuilder b;
    b.load(64)
        .move(sp(0), imm(0x123456789ABCDEFull))
        .move(sp(8), imm(0x123456789ABCDEFull))  // deduplicated
        .ret();
    Program program = b.build();
    const Bytes wire = wire_code_size(program);
    EXPECT_LT(wire, encoded_size(program));
    // header 8 + 4 insns * 8 + 1 pooled immediate * 8.
    EXPECT_EQ(wire, 8u + 4 * 8 + 8);
}

TEST(Assembler, RoundTripWithDisassembler)
{
    const char* source = R"(
        .scratch 64
        .max_iters 32
        LOAD 16
        COMPARE sp[0:8] data[0:8]
        JUMP_EQ found
        COMPARE 0 data[8]
        JUMP_EQ notfound
        MOVE cur_ptr data[8]
        NEXT_ITER
      notfound:
        MOVE sp[8] 42
        RETURN
      found:
        MOVE sp[8] data[8]
        RETURN
    )";
    AssembleResult result = assemble(source);
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_TRUE(result.program->verify());
    EXPECT_EQ(result.program->scratch_bytes(), 64u);
    EXPECT_EQ(result.program->max_iters(), 32u);
    EXPECT_EQ(result.program->size(), 11u);
    EXPECT_FALSE(result.program->disassemble().empty());
}

TEST(Assembler, DiagnosticsCarryLineNumbers)
{
    AssembleResult result = assemble("LOAD 16\nBOGUS x y\n");
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.error.find("line 2"), std::string::npos);

    result = assemble("JUMP_EQ nowhere\nRETURN\n");
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.error.find("undefined label"), std::string::npos);

    result = assemble("x:\nx:\nRETURN\n");
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.error.find("duplicate"), std::string::npos);
}

}  // namespace
}  // namespace pulse::isa
