#include "ds/linked_list.h"

#include <cstring>

#include "common/logging.h"

namespace pulse::ds {

LinkedList::LinkedList(mem::GlobalMemory& memory,
                       mem::ClusterAllocator& alloc, Bytes node_bytes)
    : memory_(memory), alloc_(alloc), node_bytes_(node_bytes)
{
    PULSE_ASSERT(node_bytes >= 16 && node_bytes <= 256,
                 "node size out of range");
}

void
LinkedList::build(const std::vector<std::uint64_t>& values, NodeId node)
{
    for (const std::uint64_t value : values) {
        const VirtAddr addr =
            node == kInvalidNode
                ? alloc_.alloc(node_bytes_, node_bytes_)
                : alloc_.alloc_on(node, node_bytes_, node_bytes_);
        PULSE_ASSERT(addr != kNullAddr, "out of disaggregated memory");
        std::uint8_t buffer[256] = {};
        std::memcpy(buffer, &value, 8);
        // next = 0 for now; patched when the successor is appended.
        fill_value_pattern(value, buffer + 16, node_bytes_ - 16);
        memory_.write(addr, buffer, node_bytes_);

        if (head_ == kNullAddr) {
            head_ = addr;
        } else {
            memory_.write_as<std::uint64_t>(tail_ + 8, addr);
        }
        tail_ = addr;
        size_++;
    }
}

std::shared_ptr<const isa::Program>
LinkedList::find_program() const
{
    if (find_program_) {
        return find_program_;
    }
    // Supp. Listing 2: end() checks value match or next == null;
    // next() follows the next pointer.
    isa::ProgramBuilder b;
    b.load(16)
        .compare(isa::sp(kSpValue), isa::dat(0))
        .jump_eq("found")
        .compare(isa::imm(0), isa::dat(8))
        .jump_eq("notfound")
        .move(isa::cur(), isa::dat(8))
        .next_iter()
        .label("notfound")
        .move(isa::sp(kSpResult), isa::imm(kKeyNotFound))
        .ret()
        .label("found")
        .move(isa::sp(kSpResult), isa::cur())
        .ret();
    find_program_ =
        std::make_shared<const isa::Program>(b.build());
    return find_program_;
}

std::shared_ptr<const isa::Program>
LinkedList::walk_program() const
{
    if (walk_program_) {
        return walk_program_;
    }
    isa::ProgramBuilder b;
    // The walk loads the whole node: it is the bandwidth stressor of
    // supp. Fig. 1b (find() coalesces just the 16 bytes it uses).
    b.load(static_cast<std::uint32_t>(node_bytes_))
        .move(isa::sp(kSpLast), isa::dat(0))
        .sub(isa::sp(kSpRemaining), isa::sp(kSpRemaining), isa::imm(1))
        .compare(isa::sp(kSpRemaining), isa::imm(0))
        .jump_eq("done")
        .compare(isa::imm(0), isa::dat(8))
        .jump_eq("done")
        .move(isa::cur(), isa::dat(8))
        .next_iter()
        .label("done")
        .ret();
    // Long walks are the point of this program; raise the per-request
    // iteration budget so single-visit latency scales linearly.
    b.max_iters(1u << 16);
    walk_program_ =
        std::make_shared<const isa::Program>(b.build());
    return walk_program_;
}

offload::Operation
LinkedList::make_find(std::uint64_t value,
                      offload::CompletionFn done) const
{
    offload::Operation op;
    op.program = find_program();
    op.start_ptr = head_;
    op.init_scratch.assign(16, 0);
    std::memcpy(op.init_scratch.data() + kSpValue, &value, 8);
    op.init_cpu_time = nanos(20.0);  // init(): stage the search value
    op.done = std::move(done);
    return op;
}

offload::Operation
LinkedList::make_walk(std::uint64_t hops, offload::CompletionFn done) const
{
    PULSE_ASSERT(hops > 0, "walk of zero hops");
    offload::Operation op;
    op.program = walk_program();
    op.start_ptr = head_;
    op.init_scratch.assign(16, 0);
    std::memcpy(op.init_scratch.data() + kSpRemaining, &hops, 8);
    op.init_cpu_time = nanos(20.0);
    op.done = std::move(done);
    return op;
}

std::optional<VirtAddr>
LinkedList::parse_find(const offload::Completion& completion)
{
    if (completion.status != isa::TraversalStatus::kDone ||
        completion.scratch.size() < kSpResult + 8) {
        return std::nullopt;
    }
    const std::uint64_t result = scratch_word(completion, kSpResult);
    if (result == kKeyNotFound) {
        return std::nullopt;
    }
    return result;
}

std::optional<VirtAddr>
LinkedList::find_reference(std::uint64_t value) const
{
    VirtAddr cur = head_;
    while (cur != kNullAddr) {
        if (memory_.read_as<std::uint64_t>(cur) == value) {
            return cur;
        }
        cur = memory_.read_as<std::uint64_t>(cur + 8);
    }
    return std::nullopt;
}

}  // namespace pulse::ds
