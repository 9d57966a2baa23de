#include "isa/interpreter.h"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "common/logging.h"

namespace pulse::isa {
namespace {

InterpreterMutation g_mutation = InterpreterMutation::kNone;

/** Slot of a scalar register access @p width bytes wide. */
Slot
scalar_slot(std::uint16_t width)
{
    switch (width) {
      case 1: return Slot::kReg1;
      case 2: return Slot::kReg2;
      case 4: return Slot::kReg4;
      case 8: return Slot::kReg8;
      default: return Slot::kOutOfRange;
    }
}

/** Bit sign(flags)+1 of a kJump taken_mask: bit 0 LT, 1 EQ, 2 GT. */
std::uint8_t
taken_mask(Cond cond)
{
    switch (cond) {
      case Cond::kAlways: return 0b111;
      case Cond::kEq: return 0b010;
      case Cond::kNeq: return 0b101;
      case Cond::kLt: return 0b001;
      case Cond::kGt: return 0b100;
      case Cond::kLe: return 0b011;
      case Cond::kGe: return 0b110;
    }
    return 0;
}

MicroCode
micro_code(const Instruction& insn)
{
    switch (insn.op) {
      case Opcode::kLoad: return MicroCode::kIllegal;
      case Opcode::kStore: return MicroCode::kStore;
      case Opcode::kAdd: return MicroCode::kAdd;
      case Opcode::kSub: return MicroCode::kSub;
      case Opcode::kMul: return MicroCode::kMul;
      case Opcode::kDiv: return MicroCode::kDiv;
      case Opcode::kAnd: return MicroCode::kAnd;
      case Opcode::kOr: return MicroCode::kOr;
      case Opcode::kNot: return MicroCode::kNot;
      case Opcode::kMove:
        return insn.dst.width > 8 ? MicroCode::kMoveSpan
                                  : MicroCode::kMove;
      case Opcode::kCompare: return MicroCode::kCompare;
      case Opcode::kJump: return MicroCode::kJump;
      case Opcode::kReturn: return MicroCode::kReturn;
      case Opcode::kNextIter: return MicroCode::kNextIter;
      case Opcode::kSpawn: return MicroCode::kSpawn;
      case Opcode::kReduce: return MicroCode::kReduce;
      case Opcode::kJoin: return MicroCode::kJoin;
      case Opcode::kCas: return MicroCode::kCas;
    }
    return MicroCode::kIllegal;
}

/** @p operand as a byte span of @p width bytes of its register vector
 *  (verify() admits only scratch_pad and data spans; any other kind is
 *  treated as data). */
MicroOperand
decode_span(const Operand& operand, std::uint16_t width,
            std::uint32_t scratch_bytes)
{
    const bool scratch = operand.kind == OperandKind::kScratch;
    MicroOperand out;
    out.space = scratch ? Space::kScratch : Space::kData;
    out.width = width;
    out.offset = static_cast<std::uint32_t>(operand.value);
    out.imm = operand.value;
    out.slot = span_fits(operand.value, width,
                         scratch ? scratch_bytes : kMaxLoadBytes)
                   ? Slot::kSpan
                   : Slot::kOutOfRange;
    return out;
}

/** Base pointers one iteration's operand accesses resolve against. */
struct Registers
{
    std::uint8_t* vectors[2];  ///< indexed by Space
    VirtAddr* cur_ptr;

    std::uint8_t*
    at(const MicroOperand& operand) const
    {
        return vectors[static_cast<int>(operand.space)] + operand.offset;
    }
};

template <typename T>
std::uint64_t
load(const std::uint8_t* at)
{
    T value;
    std::memcpy(&value, at, sizeof(T));
    return value;
}

template <typename T>
void
store(std::uint8_t* at, std::uint64_t value)
{
    const auto narrow = static_cast<T>(value);
    std::memcpy(at, &narrow, sizeof(T));
}

/** Zero-extending read of a decoded operand. Inlined into every
 *  call site, so each gets its own dispatch on the slot. */
__attribute__((always_inline)) inline std::uint64_t
get(const Registers& regs, const MicroOperand& operand)
{
    switch (operand.slot) {
      case Slot::kImm: return operand.imm;
      case Slot::kCurPtr: return *regs.cur_ptr;
      case Slot::kReg1: return load<std::uint8_t>(regs.at(operand));
      case Slot::kReg2: return load<std::uint16_t>(regs.at(operand));
      case Slot::kReg4: return load<std::uint32_t>(regs.at(operand));
      case Slot::kReg8: return load<std::uint64_t>(regs.at(operand));
      case Slot::kNone: panic("read of kNone operand");
      case Slot::kSpan:
      case Slot::kOutOfRange:
        break;
    }
    panic("operand read out of range (verifier bug)");
}

/** Truncating write to a decoded operand (inlined like get()). */
__attribute__((always_inline)) inline void
put(const Registers& regs, const MicroOperand& operand,
    std::uint64_t value)
{
    switch (operand.slot) {
      case Slot::kCurPtr: *regs.cur_ptr = value; return;
      case Slot::kReg1: return store<std::uint8_t>(regs.at(operand), value);
      case Slot::kReg2: return store<std::uint16_t>(regs.at(operand), value);
      case Slot::kReg4: return store<std::uint32_t>(regs.at(operand), value);
      case Slot::kReg8: return store<std::uint64_t>(regs.at(operand), value);
      case Slot::kNone:
      case Slot::kImm:
        panic("write to non-writable operand");
      case Slot::kSpan:
      case Slot::kOutOfRange:
        break;
    }
    panic("operand write out of range (verifier bug)");
}

}  // namespace

MicroOperand
decode_operand(const Operand& operand, std::uint32_t scratch_bytes,
               std::uint32_t data_bytes)
{
    MicroOperand out;
    out.width = operand.width;
    out.imm = operand.value;
    switch (operand.kind) {
      case OperandKind::kNone: return out;
      case OperandKind::kImm: out.slot = Slot::kImm; return out;
      case OperandKind::kCurPtr: out.slot = Slot::kCurPtr; return out;
      case OperandKind::kScratch: out.space = Space::kScratch; break;
      case OperandKind::kData: out.space = Space::kData; break;
    }
    const std::uint32_t limit =
        out.space == Space::kScratch ? scratch_bytes : data_bytes;
    out.slot = span_fits(operand.value, operand.width, limit)
                   ? scalar_slot(operand.width)
                   : Slot::kOutOfRange;
    out.offset = static_cast<std::uint32_t>(operand.value);
    return out;
}

DecodedProgram
decode_micro_ops(const std::vector<Instruction>& code,
                 std::uint32_t scratch_bytes)
{
    DecodedProgram decoded;
    decoded.ops.resize(code.size() + 1);
    decoded.entry =
        (!code.empty() && code.front().op == Opcode::kLoad) ? 1 : 0;
    const auto sentinel = static_cast<std::uint32_t>(code.size());
    const auto extend = [&decoded](const MicroOperand& operand) {
        // Only kReg1..kReg8 and kSpan address a register vector.
        if (operand.slot < Slot::kReg1 || operand.slot > Slot::kSpan) {
            return;
        }
        std::uint32_t& extent = operand.space == Space::kScratch
                                    ? decoded.scratch_extent
                                    : decoded.data_extent;
        extent = std::max(extent, operand.offset + operand.width);
    };

    for (std::size_t i = 0; i < code.size(); i++) {
        const Instruction& insn = code[i];
        MicroOp& op = decoded.ops[i];
        op.code = micro_code(insn);
        op.dst = decode_operand(insn.dst, scratch_bytes, kMaxLoadBytes);
        op.src1 = decode_operand(insn.src1, scratch_bytes, kMaxLoadBytes);
        op.src2 = decode_operand(insn.src2, scratch_bytes, kMaxLoadBytes);
        switch (op.code) {
          case MicroCode::kJump:
            op.taken_mask = taken_mask(insn.cond);
            op.target = std::min(insn.target, sentinel);
            break;
          case MicroCode::kMoveSpan:
            // Both sides move dst.width bytes (verify() makes the
            // widths equal).
            op.dst = decode_span(insn.dst, insn.dst.width, scratch_bytes);
            op.src1 = decode_span(insn.src1, insn.dst.width, scratch_bytes);
            break;
          case MicroCode::kSpawn:
            op.dst = decode_span(insn.dst, insn.dst.width, scratch_bytes);
            // The window is byte-copied into SpawnRecord::args.
            if (insn.dst.kind != OperandKind::kScratch ||
                insn.dst.width > kSpawnArgBytes) {
                op.dst.slot = Slot::kOutOfRange;
            }
            break;
          default:
            break;
        }
        extend(op.dst);
        extend(op.src1);
        extend(op.src2);
    }
    return decoded;
}

void
set_interpreter_mutation(InterpreterMutation mutation)
{
    g_mutation = mutation;
}

InterpreterMutation
interpreter_mutation()
{
    return g_mutation;
}

bool
mutation_from_name(const char* name, InterpreterMutation* out)
{
    const std::string_view sv(name);
    if (sv == "none") {
        *out = InterpreterMutation::kNone;
    } else if (sv == "add-off-by-one") {
        *out = InterpreterMutation::kAddOffByOne;
    } else if (sv == "compare-inverted") {
        *out = InterpreterMutation::kCompareInverted;
    } else if (sv == "store-drop-byte") {
        *out = InterpreterMutation::kStoreDropByte;
    } else if (sv == "drop-one-branch") {
        *out = InterpreterMutation::kSpawnDropBranch;
    } else if (sv == "double-join") {
        *out = InterpreterMutation::kSpawnDoubleJoin;
    } else {
        return false;
    }
    return true;
}

void
Workspace::configure(const Program& program)
{
    scratch.assign(program.scratch_bytes(), 0);
    data.assign(kMaxLoadBytes, 0);
    cur_ptr = kNullAddr;
    flags = 0;
    spawn_depth = 0;
}

std::uint64_t
Workspace::read(const Operand& operand) const
{
    // get() only reads through these pointers.
    auto& self = const_cast<Workspace&>(*this);
    return get(Registers{{self.scratch.data(), self.data.data()},
                         &self.cur_ptr},
               decode_operand(operand,
                              static_cast<std::uint32_t>(scratch.size()),
                              static_cast<std::uint32_t>(data.size())));
}

void
Workspace::write(const Operand& operand, std::uint64_t value)
{
    put(Registers{{scratch.data(), data.data()}, &cur_ptr},
        decode_operand(operand, static_cast<std::uint32_t>(scratch.size()),
                       static_cast<std::uint32_t>(data.size())),
        value);
}

IterationResult
run_iteration(const Program& program, Workspace& workspace,
              const CasFn& cas)
{
    const DecodedProgram& decoded = program.decoded();
    PULSE_ASSERT(workspace.scratch.size() >= decoded.scratch_extent &&
                     workspace.data.size() >= decoded.data_extent,
                 "workspace smaller than the program's operands "
                 "(verifier bug)");
    const InterpreterMutation mutation = g_mutation;
    const Registers regs{{workspace.scratch.data(), workspace.data.data()},
                         &workspace.cur_ptr};
    const MicroOp* const ops = decoded.ops.data();

    IterationResult result;
    std::uint32_t executed = 0;
    bool dropped_spawn = false;
    const auto end = [&](IterEnd how, ExecFault fault) {
        result.end = how;
        result.fault = fault;
        result.instructions_executed = executed;
    };

    std::uint32_t pc = decoded.entry;
    for (;;) {
        const MicroOp& op = ops[pc++];
        executed++;
        switch (op.code) {
          case MicroCode::kIllegal:
            // verify() guarantees LOAD only at index 0.
            end(IterEnd::kFault, ExecFault::kIllegalInstruction);
            return result;
          case MicroCode::kStore: {
            auto length = static_cast<std::uint32_t>(op.src2.imm);
            if (mutation == InterpreterMutation::kStoreDropByte &&
                length > 0) {
                length--;
            }
            result.stores.push_back(PendingStore{
                .mem_offset = op.dst.imm,
                .data_offset = static_cast<std::uint32_t>(op.src1.imm),
                .length = length,
            });
            break;
          }
          case MicroCode::kAdd:
            put(regs, op.dst,
                get(regs, op.src1) + get(regs, op.src2) +
                    (mutation == InterpreterMutation::kAddOffByOne ? 1
                                                                   : 0));
            break;
          case MicroCode::kSub:
            put(regs, op.dst, get(regs, op.src1) - get(regs, op.src2));
            break;
          case MicroCode::kMul:
            put(regs, op.dst, get(regs, op.src1) * get(regs, op.src2));
            break;
          case MicroCode::kDiv: {
            const std::uint64_t divisor = get(regs, op.src2);
            if (divisor == 0) {
                end(IterEnd::kFault, ExecFault::kDivideByZero);
                return result;
            }
            put(regs, op.dst, get(regs, op.src1) / divisor);
            break;
          }
          case MicroCode::kAnd:
            put(regs, op.dst, get(regs, op.src1) & get(regs, op.src2));
            break;
          case MicroCode::kOr:
            put(regs, op.dst, get(regs, op.src1) | get(regs, op.src2));
            break;
          case MicroCode::kNot:
            put(regs, op.dst, ~get(regs, op.src1));
            break;
          case MicroCode::kMove:
            put(regs, op.dst, get(regs, op.src1));
            break;
          case MicroCode::kMoveSpan:
            if (op.dst.slot == Slot::kOutOfRange ||
                op.src1.slot == Slot::kOutOfRange) {
                panic("vector move out of range (verifier bug)");
            }
            std::memmove(regs.at(op.dst), regs.at(op.src1), op.dst.width);
            break;
          case MicroCode::kCompare: {
            const auto a = static_cast<std::int64_t>(get(regs, op.src1));
            const auto b = static_cast<std::int64_t>(get(regs, op.src2));
            workspace.flags = (a < b) ? -1 : (a > b) ? 1 : 0;
            if (mutation == InterpreterMutation::kCompareInverted) {
                workspace.flags = -workspace.flags;
            }
            break;
          }
          case MicroCode::kJump: {
            const int sign = (workspace.flags > 0) - (workspace.flags < 0);
            if ((op.taken_mask >> (sign + 1)) & 1) {
                pc = op.target;
            }
            break;
          }
          case MicroCode::kReturn:
            end(IterEnd::kReturn, ExecFault::kNone);
            return result;
          case MicroCode::kNextIter:
            end(IterEnd::kNextIter, ExecFault::kNone);
            return result;
          case MicroCode::kSpawn: {
            if (workspace.spawn_depth >= program.max_spawn_depth()) {
                end(IterEnd::kFault, ExecFault::kSpawnDepth);
                return result;
            }
            const VirtAddr child = get(regs, op.src1);
            if (child == kNullAddr) {
                // Null-pointer spawn is a no-op: the conditional-fork
                // idiom (e.g. padded child-pointer slots).
                break;
            }
            if (mutation == InterpreterMutation::kSpawnDropBranch &&
                !dropped_spawn) {
                // Mutation: the iteration's first branch vanishes.
                dropped_spawn = true;
                break;
            }
            if (op.dst.slot == Slot::kOutOfRange) {
                panic("spawn args out of range (verifier bug)");
            }
            SpawnRecord record;
            record.start_ptr = child;
            record.arg_offset = static_cast<std::uint16_t>(op.dst.offset);
            record.arg_length = op.dst.width;
            std::memcpy(record.args, regs.at(op.dst), record.arg_length);
            result.spawns.push_back(record);
            if (mutation == InterpreterMutation::kSpawnDoubleJoin) {
                // Mutation: the branch joins twice (the duplicate is a
                // distinct branch index at the engine).
                result.spawns.push_back(record);
            }
            break;
          }
          case MicroCode::kReduce:
            // The declaration is consumed by static analysis; at
            // runtime it costs one instruction slot and does nothing.
            break;
          case MicroCode::kJoin:
            end(IterEnd::kJoin, ExecFault::kNone);
            return result;
          case MicroCode::kCas: {
            if (!cas) {
                // This execution site has no atomic path.
                end(IterEnd::kFault, ExecFault::kIllegalInstruction);
                return result;
            }
            const bool swapped =
                cas(op.dst.imm, get(regs, op.src1), get(regs, op.src2));
            workspace.flags = swapped ? 0 : 1;  // EQ on success
            break;
          }
          case MicroCode::kFellOff:
            // verify() guarantees the last instruction is terminal, so
            // this is unreachable for verified programs.
            panic("iteration fell off the end of a verified program");
        }
    }
}

}  // namespace pulse::isa
