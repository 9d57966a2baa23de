#include "isa/program.h"

#include <cstdio>

#include "common/logging.h"
#include "isa/analysis.h"
#include "isa/codec.h"

namespace pulse::isa {
namespace {

bool
is_alu(Opcode op)
{
    switch (op) {
      case Opcode::kAdd:
      case Opcode::kSub:
      case Opcode::kMul:
      case Opcode::kDiv:
      case Opcode::kAnd:
      case Opcode::kOr:
        return true;
      default:
        return false;
    }
}

/** Is @p operand a legal *destination* (writable register storage)? */
bool
writable(const Operand& operand)
{
    return operand.kind == OperandKind::kCurPtr ||
           operand.kind == OperandKind::kScratch ||
           operand.kind == OperandKind::kData;
}

/** Is @p operand a legal *source*? */
bool
readable(const Operand& operand)
{
    return operand.kind != OperandKind::kNone;
}

bool
scalar_width(const Operand& operand)
{
    if (operand.kind != OperandKind::kScratch &&
        operand.kind != OperandKind::kData) {
        return true;
    }
    return operand.width == 1 || operand.width == 2 ||
           operand.width == 4 || operand.width == 8;
}

bool
is_vector(const Operand& operand)
{
    return operand.kind == OperandKind::kScratch ||
           operand.kind == OperandKind::kData;
}

/** MOVE may be a register-vector transfer (both sides vectors of the
 *  same width, up to 256 B); every other access is scalar (1/2/4/8 B,
 *  zero-extending on read, truncating on write). SPAWN's dst is an
 *  argument *window* (byte-copied, any width up to kSpawnArgBytes). */
bool
valid_width(const Instruction& insn, const Operand& operand)
{
    const bool wide_move =
        insn.op == Opcode::kMove && is_vector(insn.dst) &&
        is_vector(insn.src1) &&
        (insn.dst.width > 8 || insn.src1.width > 8);
    if (wide_move) {
        return operand.width >= 1 && operand.width <= kMaxLoadBytes &&
               insn.dst.width == insn.src1.width;
    }
    if (insn.op == Opcode::kSpawn && &operand == &insn.dst) {
        return operand.width >= 1 && operand.width <= kSpawnArgBytes;
    }
    return scalar_width(operand);
}

bool
fail(std::string* error, const std::string& message)
{
    if (error != nullptr) {
        *error = message;
    }
    return false;
}

}  // namespace

Program::Program(std::vector<Instruction> code,
                 std::uint32_t scratch_bytes, std::uint32_t max_iters,
                 std::uint32_t max_spawn_depth)
    : code_(std::move(code)), scratch_bytes_(scratch_bytes),
      max_iters_(max_iters), max_spawn_depth_(max_spawn_depth),
      decoded_(decode_micro_ops(code_, scratch_bytes_)),
      analysis_(analyze(*this)), wire_code_size_(isa::wire_code_size(*this))
{
}

std::uint32_t
Program::load_bytes() const
{
    if (!code_.empty() && code_.front().op == Opcode::kLoad) {
        return static_cast<std::uint32_t>(code_.front().src1.value);
    }
    return 0;
}

bool
Program::verify(std::string* error) const
{
    if (code_.empty()) {
        return fail(error, "empty program");
    }
    char buf[160];
    std::uint32_t spawn_sites = 0;
    std::uint32_t reduce_sites = 0;
    bool has_join = false;
    bool has_return = false;
    bool has_store = false;
    for (std::size_t i = 0; i < code_.size(); i++) {
        const Instruction& insn = code_[i];
        const auto where = [&](const char* what) {
            std::snprintf(buf, sizeof(buf), "instruction %zu (%s): %s", i,
                          opcode_name(insn.op), what);
            return std::string(buf);
        };

        // Operand widths and offsets are static; bound them all here so
        // the accelerator never needs runtime range checks.
        for (const Operand* operand : {&insn.dst, &insn.src1, &insn.src2}) {
            if (!valid_width(insn, *operand)) {
                return fail(error, where("bad operand width"));
            }
            if (operand->kind == OperandKind::kScratch &&
                !span_fits(operand->value, operand->width,
                           scratch_bytes_)) {
                return fail(error, where("scratch_pad offset out of range"));
            }
            if (operand->kind == OperandKind::kData &&
                !span_fits(operand->value, operand->width,
                           kMaxLoadBytes)) {
                return fail(error, where("data offset out of range"));
            }
        }

        switch (insn.op) {
          case Opcode::kLoad:
            if (i != 0) {
                return fail(error,
                            where("LOAD allowed only at instruction 0 "
                                  "(one aggregated load per iteration)"));
            }
            if (insn.src1.kind != OperandKind::kImm ||
                insn.src1.value == 0 || insn.src1.value > kMaxLoadBytes) {
                return fail(error, where("LOAD length must be an "
                                         "immediate in [1, 256]"));
            }
            break;
          case Opcode::kStore: {
            if (insn.dst.kind != OperandKind::kImm ||
                insn.src1.kind != OperandKind::kImm ||
                insn.src2.kind != OperandKind::kImm) {
                return fail(error, where("STORE operands must be "
                                         "immediates (off, off, len)"));
            }
            const auto data_off = insn.src1.value;
            const auto len = insn.src2.value;
            if (len == 0 || !span_fits(data_off, len, kMaxLoadBytes)) {
                return fail(error, where("STORE data span out of range"));
            }
            has_store = true;
            break;
          }
          case Opcode::kAdd:
          case Opcode::kSub:
          case Opcode::kMul:
          case Opcode::kDiv:
          case Opcode::kAnd:
          case Opcode::kOr:
            if (!writable(insn.dst) || !readable(insn.src1) ||
                !readable(insn.src2)) {
                return fail(error, where("ALU needs writable dst and two "
                                         "readable sources"));
            }
            break;
          case Opcode::kNot:
          case Opcode::kMove:
            if (!writable(insn.dst) || !readable(insn.src1)) {
                return fail(error, where("needs writable dst and a "
                                         "readable source"));
            }
            break;
          case Opcode::kCompare:
            if (!readable(insn.src1) || !readable(insn.src2)) {
                return fail(error, where("COMPARE needs two sources"));
            }
            break;
          case Opcode::kJump:
            // Backward jumps would create unbounded loops within an
            // iteration; the ISA forbids them (section 3.1).
            if (insn.target <= i) {
                return fail(error, where("backward or self jump"));
            }
            if (insn.target >= code_.size()) {
                return fail(error, where("jump past end of program"));
            }
            break;
          case Opcode::kReturn:
            has_return = true;
            break;
          case Opcode::kNextIter:
            break;
          case Opcode::kSpawn:
            spawn_sites++;
            if (!readable(insn.src1) || insn.src1.width != 8 ||
                insn.src1.kind == OperandKind::kImm) {
                return fail(error, where("SPAWN start pointer must be "
                                         "an 8-byte register read"));
            }
            if (insn.dst.kind != OperandKind::kScratch ||
                insn.dst.width == 0 ||
                insn.dst.width > kSpawnArgBytes) {
                return fail(error,
                            where("SPAWN argument window must be a "
                                  "scratch_pad span of at most 32 B"));
            }
            break;
          case Opcode::kReduce: {
            reduce_sites++;
            if (insn.dst.kind != OperandKind::kImm ||
                insn.src1.kind != OperandKind::kImm ||
                insn.src2.kind != OperandKind::kImm) {
                return fail(error, where("REDUCE operands must be "
                                         "immediates (off, lanes, op)"));
            }
            const auto lanes = insn.src1.value;
            if (lanes == 0 || lanes > 8) {
                return fail(error,
                            where("REDUCE lane count must be in [1, 8]"));
            }
            if (!span_fits(insn.dst.value, 8 * lanes, scratch_bytes_)) {
                return fail(error, where("REDUCE accumulator span out "
                                         "of scratch_pad range"));
            }
            if (insn.src2.value > static_cast<std::uint64_t>(
                                      ReduceOp::kMax)) {
                return fail(error, where("unknown REDUCE operator"));
            }
            break;
          }
          case Opcode::kJoin:
            has_join = true;
            break;
          case Opcode::kCas:
            if (insn.dst.kind != OperandKind::kImm ||
                !span_fits(insn.dst.value, 8, kMaxLoadBytes)) {
                return fail(error, where("CAS offset must be an "
                                         "immediate within the load "
                                         "vicinity"));
            }
            if (!readable(insn.src1) || !readable(insn.src2)) {
                return fail(error, where("CAS needs expected and "
                                         "desired sources"));
            }
            has_store = true;
            break;
        }
        (void)is_alu;
    }

    // Fork/join structural rules. A forking program terminates through
    // the join/reduce rendezvous: RETURN would complete the request
    // while children are still in flight, so it is forbidden; exactly
    // one REDUCE names the accumulator the engine folds children into;
    // and memory effects are read-only, which is what makes the DAG's
    // result independent of branch completion order (the oracle's
    // order-insensitive gating rule, docs/TESTING.md).
    if (spawn_sites > 0) {
        if (max_spawn_depth_ == 0) {
            return fail(error, "SPAWN requires max_spawn_depth >= 1");
        }
        if (spawn_sites > kMaxSpawnsPerVisit) {
            return fail(error, "SPAWN sites exceed the per-visit "
                               "spawn-list capacity");
        }
        if (reduce_sites != 1) {
            return fail(error, "a forking program needs exactly one "
                               "REDUCE declaration");
        }
        if (!has_join) {
            return fail(error, "a forking program must terminate via "
                               "JOIN");
        }
        if (has_return) {
            return fail(error, "RETURN is illegal in a forking program "
                               "(use JOIN)");
        }
        if (has_store) {
            return fail(error, "STORE/CAS are illegal in a forking "
                               "program (forked traversals are "
                               "read-only)");
        }
    } else if (has_join || reduce_sites > 0) {
        return fail(error, "JOIN/REDUCE without any SPAWN site");
    }
    if (max_spawn_depth_ > kMaxSpawnDepthLimit) {
        return fail(error, "max_spawn_depth exceeds the wire limit");
    }
    if (max_spawn_depth_ > 0 && max_iters_ >= (1u << 24)) {
        return fail(error, "forking programs cap max_iters below 2^24 "
                           "(header packing)");
    }

    // Every fall-through path must end in a terminal instruction: the
    // last instruction must be terminal or an unconditional jump cannot
    // exist past it (it can't: verified above). Conditional fallthrough
    // off the end is a bug.
    const Opcode last = code_.back().op;
    if (last != Opcode::kReturn && last != Opcode::kNextIter &&
        last != Opcode::kJoin) {
        return fail(error, "program may fall off the end (last "
                           "instruction is not RETURN/NEXT_ITER/JOIN)");
    }
    return true;
}

std::string
Program::disassemble() const
{
    std::string out;
    char buf[192];
    for (std::size_t i = 0; i < code_.size(); i++) {
        const Instruction& insn = code_[i];
        switch (insn.op) {
          case Opcode::kLoad:
            std::snprintf(buf, sizeof(buf), "%3zu: LOAD %llu\n", i,
                          static_cast<unsigned long long>(insn.src1.value));
            break;
          case Opcode::kStore:
            std::snprintf(buf, sizeof(buf), "%3zu: STORE mem+%llu "
                          "data[%llu] len=%llu\n", i,
                          static_cast<unsigned long long>(insn.dst.value),
                          static_cast<unsigned long long>(insn.src1.value),
                          static_cast<unsigned long long>(insn.src2.value));
            break;
          case Opcode::kJump:
            std::snprintf(buf, sizeof(buf), "%3zu: JUMP_%s %u\n", i,
                          cond_name(insn.cond), insn.target);
            break;
          case Opcode::kReturn:
          case Opcode::kNextIter:
          case Opcode::kJoin:
            std::snprintf(buf, sizeof(buf), "%3zu: %s\n", i,
                          opcode_name(insn.op));
            break;
          case Opcode::kSpawn:
            std::snprintf(buf, sizeof(buf), "%3zu: SPAWN %s %s\n", i,
                          operand_to_string(insn.dst).c_str(),
                          operand_to_string(insn.src1).c_str());
            break;
          case Opcode::kReduce:
            std::snprintf(
                buf, sizeof(buf), "%3zu: REDUCE %llu %llu %s\n", i,
                static_cast<unsigned long long>(insn.dst.value),
                static_cast<unsigned long long>(insn.src1.value),
                reduce_op_name(
                    static_cast<ReduceOp>(insn.src2.value)));
            break;
          case Opcode::kNot:
          case Opcode::kMove:
            std::snprintf(buf, sizeof(buf), "%3zu: %s %s %s\n", i,
                          opcode_name(insn.op),
                          operand_to_string(insn.dst).c_str(),
                          operand_to_string(insn.src1).c_str());
            break;
          case Opcode::kCompare:
            std::snprintf(buf, sizeof(buf), "%3zu: COMPARE %s %s\n", i,
                          operand_to_string(insn.src1).c_str(),
                          operand_to_string(insn.src2).c_str());
            break;
          case Opcode::kCas:
            std::snprintf(buf, sizeof(buf), "%3zu: CAS %llu %s %s\n",
                          i,
                          static_cast<unsigned long long>(
                              insn.dst.value),
                          operand_to_string(insn.src1).c_str(),
                          operand_to_string(insn.src2).c_str());
            break;
          default:
            std::snprintf(buf, sizeof(buf), "%3zu: %s %s %s %s\n", i,
                          opcode_name(insn.op),
                          operand_to_string(insn.dst).c_str(),
                          operand_to_string(insn.src1).c_str(),
                          operand_to_string(insn.src2).c_str());
            break;
        }
        out += buf;
    }
    return out;
}

ProgramBuilder&
ProgramBuilder::emit(Instruction instruction)
{
    code_.push_back(instruction);
    return *this;
}

ProgramBuilder&
ProgramBuilder::load(std::uint32_t bytes)
{
    return emit({.op = Opcode::kLoad, .src1 = imm(bytes)});
}

ProgramBuilder&
ProgramBuilder::store(std::uint32_t mem_off, std::uint32_t data_off,
                      std::uint32_t len)
{
    return emit({.op = Opcode::kStore, .dst = imm(mem_off),
                 .src1 = imm(data_off), .src2 = imm(len)});
}

ProgramBuilder&
ProgramBuilder::add(Operand dst, Operand a, Operand b)
{
    return emit({.op = Opcode::kAdd, .dst = dst, .src1 = a, .src2 = b});
}

ProgramBuilder&
ProgramBuilder::sub(Operand dst, Operand a, Operand b)
{
    return emit({.op = Opcode::kSub, .dst = dst, .src1 = a, .src2 = b});
}

ProgramBuilder&
ProgramBuilder::mul(Operand dst, Operand a, Operand b)
{
    return emit({.op = Opcode::kMul, .dst = dst, .src1 = a, .src2 = b});
}

ProgramBuilder&
ProgramBuilder::div(Operand dst, Operand a, Operand b)
{
    return emit({.op = Opcode::kDiv, .dst = dst, .src1 = a, .src2 = b});
}

ProgramBuilder&
ProgramBuilder::band(Operand dst, Operand a, Operand b)
{
    return emit({.op = Opcode::kAnd, .dst = dst, .src1 = a, .src2 = b});
}

ProgramBuilder&
ProgramBuilder::bor(Operand dst, Operand a, Operand b)
{
    return emit({.op = Opcode::kOr, .dst = dst, .src1 = a, .src2 = b});
}

ProgramBuilder&
ProgramBuilder::bnot(Operand dst, Operand a)
{
    return emit({.op = Opcode::kNot, .dst = dst, .src1 = a});
}

ProgramBuilder&
ProgramBuilder::move(Operand dst, Operand src)
{
    return emit({.op = Opcode::kMove, .dst = dst, .src1 = src});
}

ProgramBuilder&
ProgramBuilder::compare(Operand a, Operand b)
{
    return emit({.op = Opcode::kCompare, .src1 = a, .src2 = b});
}

ProgramBuilder&
ProgramBuilder::jump(Cond cond, const std::string& label)
{
    pending_.push_back({code_.size(), label});
    return emit({.op = Opcode::kJump, .cond = cond});
}

ProgramBuilder&
ProgramBuilder::jump_eq(const std::string& label)
{
    return jump(Cond::kEq, label);
}

ProgramBuilder&
ProgramBuilder::jump_neq(const std::string& label)
{
    return jump(Cond::kNeq, label);
}

ProgramBuilder&
ProgramBuilder::jump_lt(const std::string& label)
{
    return jump(Cond::kLt, label);
}

ProgramBuilder&
ProgramBuilder::jump_gt(const std::string& label)
{
    return jump(Cond::kGt, label);
}

ProgramBuilder&
ProgramBuilder::jump_le(const std::string& label)
{
    return jump(Cond::kLe, label);
}

ProgramBuilder&
ProgramBuilder::jump_ge(const std::string& label)
{
    return jump(Cond::kGe, label);
}

ProgramBuilder&
ProgramBuilder::jump_always(const std::string& label)
{
    return jump(Cond::kAlways, label);
}

ProgramBuilder&
ProgramBuilder::cas(std::uint32_t mem_off, Operand expected,
                    Operand desired)
{
    return emit({.op = Opcode::kCas, .dst = imm(mem_off),
                 .src1 = expected, .src2 = desired});
}

ProgramBuilder&
ProgramBuilder::next_iter()
{
    return emit({.op = Opcode::kNextIter});
}

ProgramBuilder&
ProgramBuilder::ret()
{
    return emit({.op = Opcode::kReturn});
}

ProgramBuilder&
ProgramBuilder::spawn(Operand start_ptr, std::uint32_t arg_off,
                      std::uint32_t arg_len)
{
    return emit({.op = Opcode::kSpawn,
                 .dst = sp(arg_off,
                           static_cast<std::uint16_t>(arg_len)),
                 .src1 = start_ptr});
}

ProgramBuilder&
ProgramBuilder::reduce(ReduceOp op, std::uint32_t acc_off,
                       std::uint32_t lanes)
{
    return emit({.op = Opcode::kReduce, .dst = imm(acc_off),
                 .src1 = imm(lanes),
                 .src2 = imm(static_cast<std::uint64_t>(op))});
}

ProgramBuilder&
ProgramBuilder::join()
{
    return emit({.op = Opcode::kJoin});
}

ProgramBuilder&
ProgramBuilder::max_spawn_depth(std::uint32_t depth)
{
    max_spawn_depth_ = depth;
    return *this;
}

ProgramBuilder&
ProgramBuilder::label(const std::string& label)
{
    labels_.emplace_back(label,
                         static_cast<std::uint32_t>(code_.size()));
    return *this;
}

ProgramBuilder&
ProgramBuilder::scratch_bytes(std::uint32_t bytes)
{
    scratch_bytes_ = bytes;
    return *this;
}

ProgramBuilder&
ProgramBuilder::max_iters(std::uint32_t iters)
{
    max_iters_ = iters;
    return *this;
}

Program
ProgramBuilder::build() const
{
    std::vector<Instruction> code = code_;
    for (const PendingJump& jump : pending_) {
        bool found = false;
        for (const auto& [name, index] : labels_) {
            if (name == jump.label) {
                code[jump.index].target = index;
                found = true;
                break;
            }
        }
        if (!found) {
            fatal("ProgramBuilder: unresolved label '%s'",
                  jump.label.c_str());
        }
    }
    return Program(std::move(code), scratch_bytes_, max_iters_,
                   max_spawn_depth_);
}

}  // namespace pulse::isa
