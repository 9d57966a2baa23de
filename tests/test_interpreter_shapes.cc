/**
 * @file
 * Table-driven differential test of the production interpreter
 * (isa::run_iteration over its decoded micro-ops) against the
 * independent check/ reference interpreter, for every operand shape:
 *   - every scalar opcode (ADD SUB MUL DIV AND OR NOT MOVE, COMPARE
 *     followed by each JUMP condition, CAS operand reads) over every
 *     space x width 1/2/4/8 x aligned and unaligned offsets;
 *   - vector MOVE scratch<->data, and overlapping data->data moves;
 *   - STORE capture and SPAWN argument capture.
 * Node memory and the initial scratch_pad are seeded at random. Every
 * program ends by copying the data registers into the scratch_pad, so
 * comparing scratch_pads compares both register vectors.
 *
 * The fuzzer's random programs only use 8-byte aligned scalars and
 * 16-byte vector moves; this table covers the rest.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "check/reference_interpreter.h"
#include "check/shadow_memory.h"
#include "common/random.h"
#include "isa/interpreter.h"
#include "isa/program.h"
#include "isa/traversal.h"
#include "mem/global_memory.h"

namespace pulse::check {
namespace {

using isa::Operand;
using isa::ProgramBuilder;

/** Operands live in [0, 256) of the scratch_pad; the data registers
 *  are copied to [256, 512) before RETURN. */
constexpr std::uint32_t kScratchBytes = 512;
constexpr std::uint32_t kNodeBytes = 256;
constexpr std::uint32_t kDataCopy = 256;
/** Node bytes compared after a run: STOREs may reach past the LOAD. */
constexpr std::uint32_t kCompareBytes = 512;

/** Scalar register operands: scratch/data x width x alignment (an
 *  offset of 8k, and 8k + 1, which is unaligned for every width > 1). */
std::vector<Operand>
register_operands()
{
    std::vector<Operand> out;
    std::uint32_t offset = 32;
    for (const std::uint16_t width : {1, 2, 4, 8}) {
        for (const std::uint32_t skew : {0u, 1u}) {
            out.push_back(isa::sp(offset + skew, width));
            out.push_back(isa::dat(offset + 64 + skew, width));
        }
        offset += 16;
    }
    return out;
}

/** Every readable scalar shape. */
std::vector<Operand>
sources()
{
    std::vector<Operand> out = register_operands();
    out.push_back(isa::imm(0x8000'0000'0000'0003ull));
    out.push_back(isa::imm(5));
    out.push_back(isa::cur());
    return out;
}

/** Every writable scalar shape. */
std::vector<Operand>
destinations()
{
    std::vector<Operand> out = register_operands();
    out.push_back(isa::cur());
    return out;
}

class InterpreterShapes : public ::testing::Test
{
  protected:
    InterpreterShapes()
        : memory_(1, 1 * kMiB), base_(memory_.address_map().region(0).base)
    {
    }

    /** LOAD the node, then let @p body emit the instructions under
     *  test; the epilogue copies the data registers and returns. */
    template <typename Body>
    isa::Program
    program(Body&& body)
    {
        ProgramBuilder b;
        b.scratch_bytes(kScratchBytes).load(kNodeBytes);
        body(b);
        b.move(isa::sp(kDataCopy, kNodeBytes), isa::dat(0, kNodeBytes))
            .ret();
        return b.build();
    }

    /** Seed node memory and the initial scratch_pad from @p seed. */
    std::vector<std::uint8_t>
    seed(std::uint64_t seed)
    {
        Rng rng(seed);
        std::vector<std::uint8_t> node(kNodeBytes);
        for (auto& byte : node) {
            byte = static_cast<std::uint8_t>(rng.next_u64());
        }
        memory_.write(base_, node.data(), node.size());
        std::vector<std::uint8_t> scratch(kScratchBytes / 2);
        for (auto& byte : scratch) {
            byte = static_cast<std::uint8_t>(rng.next_u64());
        }
        return scratch;
    }

    /** Run @p program under both interpreters and compare everything
     *  a traversal can change: outcome, scratch_pad and node memory. */
    void
    check(const isa::Program& program, std::uint64_t seed_value)
    {
        std::string error;
        ASSERT_TRUE(program.verify(&error)) << error;
        const std::vector<std::uint8_t> init = seed(seed_value);

        // The reference writes only its overlay, so it runs first and
        // the node's expected bytes are read back before production
        // writes the real memory.
        ShadowMemory shadow(memory_);
        const ReferenceOutcome expected =
            reference_traversal(program, base_, init, shadow);
        std::vector<std::uint8_t> expected_node(kCompareBytes);
        ASSERT_TRUE(
            shadow.load(base_, kCompareBytes, expected_node.data()));

        isa::MemoryHooks hooks;
        hooks.load = [&](VirtAddr va, std::uint32_t len, std::uint8_t* out) {
            memory_.read(va, out, len);
            return true;
        };
        hooks.store = [&](VirtAddr va, std::uint32_t len,
                          const std::uint8_t* in) {
            memory_.write(va, in, len);
            return true;
        };
        hooks.cas = [&](VirtAddr va, std::uint64_t expected_word,
                        std::uint64_t desired) {
            if (memory_.read_as<std::uint64_t>(va) != expected_word) {
                return false;
            }
            memory_.write_as<std::uint64_t>(va, desired);
            return true;
        };
        const isa::TraversalOutcome actual =
            isa::run_traversal(program, base_, init, hooks);
        std::vector<std::uint8_t> actual_node(kCompareBytes);
        memory_.read(base_, actual_node.data(), kCompareBytes);

        // Streamed only on failure.
        const auto what = [&program] { return program.disassemble(); };
        EXPECT_EQ(actual.status, expected.status) << what();
        EXPECT_EQ(actual.fault, expected.fault) << what();
        EXPECT_EQ(actual.iterations, expected.iterations) << what();
        EXPECT_EQ(actual.instructions, expected.instructions) << what();
        EXPECT_EQ(actual.final_ptr, expected.final_ptr) << what();
        EXPECT_EQ(actual.scratch, expected.scratch) << what();
        EXPECT_EQ(actual_node, expected_node) << what();
    }

    mem::GlobalMemory memory_;
    VirtAddr base_;
};

TEST_F(InterpreterShapes, BinaryAluOverEveryShape)
{
    using Emit = ProgramBuilder& (ProgramBuilder::*)(Operand, Operand,
                                                     Operand);
    const Emit ops[] = {&ProgramBuilder::add, &ProgramBuilder::sub,
                        &ProgramBuilder::mul, &ProgramBuilder::div,
                        &ProgramBuilder::band, &ProgramBuilder::bor};
    std::uint64_t seed_value = 1;
    for (const Emit op : ops) {
        for (const Operand& dst : destinations()) {
            for (const Operand& a : sources()) {
                for (const Operand& b : sources()) {
                    check(program([&](ProgramBuilder& builder) {
                              (builder.*op)(dst, a, b);
                          }),
                          seed_value++);
                }
            }
        }
    }
}

TEST_F(InterpreterShapes, DivideByZeroFaultsAlike)
{
    for (const Operand& dst : destinations()) {
        check(program([&](ProgramBuilder& b) {
                  b.move(isa::sp(16, 4), isa::imm(0))
                      .div(dst, isa::dat(8, 8), isa::sp(16, 4));
              }),
              7);
    }
}

TEST_F(InterpreterShapes, UnaryNotAndMoveOverEveryShape)
{
    std::uint64_t seed_value = 100;
    for (const Operand& dst : destinations()) {
        for (const Operand& src : sources()) {
            check(program([&](ProgramBuilder& b) { b.bnot(dst, src); }),
                  seed_value++);
            check(program([&](ProgramBuilder& b) { b.move(dst, src); }),
                  seed_value++);
        }
    }
}

TEST_F(InterpreterShapes, CompareThenEveryJumpCondition)
{
    const isa::Cond conds[] = {isa::Cond::kAlways, isa::Cond::kEq,
                               isa::Cond::kNeq,    isa::Cond::kLt,
                               isa::Cond::kGt,     isa::Cond::kLe,
                               isa::Cond::kGe};
    std::uint64_t seed_value = 1000;
    for (const isa::Cond cond : conds) {
        for (const Operand& a : sources()) {
            // Against every shape, and against itself (flags EQ).
            for (const Operand& b : sources()) {
                for (const Operand& rhs : {b, a}) {
                    check(program([&](ProgramBuilder& builder) {
                              builder.compare(a, rhs)
                                  .jump(cond, "taken")
                                  .move(isa::sp(0), isa::imm(0xab))
                                  .label("taken")
                                  .add(isa::sp(8), isa::sp(8),
                                       isa::imm(1));
                          }),
                          seed_value++);
                }
            }
        }
    }
}

TEST_F(InterpreterShapes, CasReadsEveryOperandShape)
{
    std::uint64_t seed_value = 5000;
    for (const Operand& expected : sources()) {
        for (const Operand& desired : sources()) {
            check(program([&](ProgramBuilder& b) {
                      b.cas(24, expected, desired)
                          .jump_neq("failed")
                          .move(isa::sp(0), isa::imm(1))
                          .label("failed");
                  }),
                  seed_value++);
        }
        // The loaded word itself: this swap succeeds.
        check(program([&](ProgramBuilder& b) {
                  b.cas(24, isa::dat(24, 8), expected)
                      .jump_neq("failed")
                      .move(isa::sp(0), isa::imm(1))
                      .label("failed");
              }),
              seed_value++);
    }
}

TEST_F(InterpreterShapes, VectorMovesIncludingOverlap)
{
    struct Move
    {
        Operand dst;
        Operand src;
    };
    const Move moves[] = {
        {isa::sp(3, 16), isa::dat(5, 16)},
        {isa::dat(7, 24), isa::sp(1, 24)},
        {isa::sp(0, 200), isa::dat(56, 200)},
        {isa::dat(40, 216), isa::sp(0, 216)},
        {isa::sp(64, 96), isa::sp(16, 96)},
        // Overlapping data -> data, both directions.
        {isa::dat(9, 100), isa::dat(0, 100)},
        {isa::dat(0, 100), isa::dat(9, 100)},
        {isa::dat(1, 255), isa::dat(0, 255)},
    };
    std::uint64_t seed_value = 9000;
    for (const Move& move : moves) {
        check(program([&](ProgramBuilder& b) { b.move(move.dst, move.src); }),
              seed_value++);
    }
}

TEST_F(InterpreterShapes, StoreCapturesSpanAtIterationEnd)
{
    struct Span
    {
        std::uint32_t mem_off;
        std::uint32_t data_off;
        std::uint32_t len;
    };
    const Span spans[] = {{0, 0, 8},   {3, 17, 1},   {8, 8, 64},
                          {5, 0, 255}, {128, 64, 128}, {250, 1, 6}};
    std::uint64_t seed_value = 9500;
    for (const Span& span : spans) {
        // The data written before the STORE, and after it, must both
        // land: the memory pipeline applies the data registers' state
        // at iteration end.
        check(program([&](ProgramBuilder& b) {
                  b.move(isa::dat(span.data_off, 1), isa::imm(0x5a))
                      .store(span.mem_off, span.data_off, span.len)
                      .add(isa::dat(span.data_off + span.len - 1, 1),
                           isa::dat(span.data_off + span.len - 1, 1),
                           isa::imm(1));
              }),
              seed_value++);
    }
}

TEST_F(InterpreterShapes, SpawnCapturesArgumentsAtSpawnTime)
{
    struct Window
    {
        std::uint32_t offset;
        std::uint32_t length;
    };
    const Window windows[] = {{0, 1}, {3, 5}, {8, 8}, {13, 32}, {200, 17}};
    const Operand pointers[] = {isa::dat(0, 8), isa::dat(3, 8),
                                isa::sp(40, 8), isa::cur()};
    std::uint64_t seed_value = 9900;
    for (const Window& window : windows) {
        for (const Operand& pointer : pointers) {
            ProgramBuilder b;
            b.scratch_bytes(kScratchBytes)
                .max_spawn_depth(1)
                .load(kNodeBytes)
                .spawn(pointer, window.offset, window.length)
                // Overwrite the window after the SPAWN: the child must
                // see the bytes as they were when it was spawned.
                .move(isa::sp(window.offset, 1), isa::imm(0xee))
                .spawn(isa::dat(16, 8), window.offset, window.length)
                .reduce(isa::ReduceOp::kAdd, 256, 1)
                .join();
            const isa::Program program = b.build();
            std::string error;
            ASSERT_TRUE(program.verify(&error)) << error;
            const std::vector<std::uint8_t> init = seed(seed_value++);

            ShadowMemory shadow(memory_);
            ReferenceOptions options;
            options.enable_spawns = true;
            const ReferenceOutcome expected = reference_traversal(
                program, base_, init, shadow, 1, options);

            isa::Workspace ws;
            ws.configure(program);
            ws.cur_ptr = base_;
            std::copy(init.begin(), init.end(), ws.scratch.begin());
            memory_.read(base_, ws.data.data(), kNodeBytes);
            const isa::IterationResult actual = isa::run_iteration(program, ws);

            const auto what = [&program] { return program.disassemble(); };
            EXPECT_EQ(actual.end, isa::IterEnd::kJoin) << what();
            EXPECT_EQ(actual.instructions_executed, expected.instructions)
                << what();
            EXPECT_EQ(ws.scratch, expected.scratch) << what();
            ASSERT_EQ(actual.spawns.size(), expected.spawns.size()) << what();
            for (std::size_t i = 0; i < actual.spawns.size(); i++) {
                const isa::SpawnRecord& record = actual.spawns[i];
                const ReferenceSpawn& reference = expected.spawns[i];
                EXPECT_EQ(record.start_ptr, reference.start_ptr) << what();
                EXPECT_EQ(record.arg_offset, reference.arg_offset) << what();
                EXPECT_EQ(std::vector<std::uint8_t>(
                              record.args, record.args + record.arg_length),
                          reference.args)
                    << what();
            }
        }
    }
}

}  // namespace
}  // namespace pulse::check
