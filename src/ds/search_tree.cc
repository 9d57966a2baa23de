#include "ds/search_tree.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace pulse::ds {

SearchTree::SearchTree(mem::GlobalMemory& memory,
                       mem::ClusterAllocator& alloc, TreeLayout layout)
    : memory_(memory),
      alloc_(alloc),
      layout_(layout),
      // The Boost layouts' metadata word comes first.
      key_off_(layout == TreeLayout::kStl ? 0 : 8),
      left_off_(key_off_ + 8),
      right_off_(key_off_ + 16),
      value_off_(key_off_ + 24)
{
}

VirtAddr
SearchTree::build_subtree(const std::vector<std::uint64_t>& keys,
                          std::size_t lo, std::size_t hi, NodeId node,
                          std::uint32_t level)
{
    if (lo >= hi) {
        return kNullAddr;
    }
    depth_ = std::max(depth_, level + 1);
    const std::size_t mid = lo + (hi - lo) / 2;
    const VirtAddr addr =
        node == kInvalidNode
            ? alloc_.alloc(kNodeBytes, kNodeBytes)
            : alloc_.alloc_on(node, kNodeBytes, kNodeBytes);
    PULSE_ASSERT(addr != kNullAddr, "out of memory for tree node");

    const VirtAddr left =
        build_subtree(keys, lo, mid, node, level + 1);
    const VirtAddr right =
        build_subtree(keys, mid + 1, hi, node, level + 1);

    // Layout-specific bookkeeping word (unused on the read path, but
    // present so the layout matches the intrusive containers).
    std::uint64_t meta = 0;  // AVL balance factor: balanced by build
    if (layout_ == TreeLayout::kSplay) {
        meta = 1;  // access epoch
    } else if (layout_ == TreeLayout::kScapegoat) {
        meta = hi - lo;  // subtree size
    }

    std::uint8_t buffer[kNodeBytes] = {};
    const std::uint64_t value = value_pattern_word(keys[mid]);
    std::memcpy(buffer, &meta, key_off_);
    std::memcpy(buffer + key_off_, &keys[mid], 8);
    std::memcpy(buffer + left_off_, &left, 8);
    std::memcpy(buffer + right_off_, &right, 8);
    std::memcpy(buffer + value_off_, &value, 8);
    memory_.write(addr, buffer, kNodeBytes);
    return addr;
}

void
SearchTree::build(const std::vector<std::uint64_t>& sorted_keys,
                  NodeId node)
{
    PULSE_ASSERT(root_ == kNullAddr, "tree already built");
    PULSE_ASSERT(!sorted_keys.empty(), "empty build");
    for (std::size_t i = 1; i < sorted_keys.size(); i++) {
        PULSE_ASSERT(sorted_keys[i - 1] < sorted_keys[i],
                     "keys must be strictly increasing");
    }
    root_ = build_subtree(sorted_keys, 0, sorted_keys.size(), node, 0);
}

std::shared_ptr<const isa::Program>
SearchTree::lower_bound_program() const
{
    if (program_) {
        return program_;
    }
    using isa::cur;
    using isa::dat;
    using isa::imm;
    using isa::sp;

    isa::ProgramBuilder b;
    // x->key >= key: x is the best candidate so far; go left.
    const auto go_left = [&] {
        b.move(sp(kSpCandidate), cur())
            .move(cur(), dat(left_off_))
            .next_iter();
    };
    const auto go_right = [&] {
        b.move(cur(), dat(right_off_)).next_iter();
    };
    b.load(value_off_ + 8)
        // Phase 1: cur_ptr points at the recorded candidate; emit it.
        .compare(sp(kSpPhase), imm(1))
        .jump_eq("emit")
        // The listings' loop body. Null means the descent is over.
        .compare(cur(), imm(0))
        .jump_eq("descended")
        .compare(dat(key_off_), sp(kSpKey));
    if (layout_ == TreeLayout::kStl) {
        b.jump_lt("go_right");
        go_left();
        b.label("go_right");
        go_right();
    } else {
        b.jump_ge("go_left");
        go_right();
        b.label("go_left");
        go_left();
    }
    // Descent finished: revisit the candidate (if any) to fetch its
    // key/value in one extra iteration.
    b.label("descended")
        .compare(sp(kSpCandidate), imm(0))
        .jump_eq("notfound")
        .move(cur(), sp(kSpCandidate))
        .move(sp(kSpPhase), imm(1))
        .next_iter()
        .label("notfound")
        .move(sp(kSpDone), imm(kKeyNotFound))
        .ret()
        .label("emit")
        .move(sp(kSpFoundKey), dat(key_off_))
        .move(sp(kSpValue), dat(value_off_))
        .move(sp(kSpDone), imm(1))
        .ret();
    b.scratch_bytes(kSpBytes);
    program_ = std::make_shared<const isa::Program>(b.build());
    return program_;
}

offload::Operation
SearchTree::make_lower_bound(std::uint64_t key,
                             offload::CompletionFn done) const
{
    offload::Operation op;
    op.program = lower_bound_program();
    op.start_ptr = root_;
    op.init_scratch.assign(kSpBytes, 0);
    std::memcpy(op.init_scratch.data() + kSpKey, &key, 8);
    op.init_cpu_time = nanos(25.0);
    op.done = std::move(done);
    return op;
}

SearchTree::LowerBoundResult
SearchTree::parse_lower_bound(const offload::Completion& completion)
{
    LowerBoundResult result;
    if (completion.status != isa::TraversalStatus::kDone ||
        scratch_word(completion, kSpDone) != 1) {
        return result;
    }
    result.found = true;
    result.key = scratch_word(completion, kSpFoundKey);
    result.value = scratch_word(completion, kSpValue);
    return result;
}

std::optional<std::pair<std::uint64_t, std::uint64_t>>
SearchTree::lower_bound_reference(std::uint64_t key) const
{
    VirtAddr x = root_;
    VirtAddr y = kNullAddr;
    while (x != kNullAddr) {
        const std::uint64_t node_key =
            memory_.read_as<std::uint64_t>(x + key_off_);
        if (node_key >= key) {
            y = x;
            x = memory_.read_as<std::uint64_t>(x + left_off_);
        } else {
            x = memory_.read_as<std::uint64_t>(x + right_off_);
        }
    }
    if (y == kNullAddr) {
        return std::nullopt;
    }
    return std::make_pair(memory_.read_as<std::uint64_t>(y + key_off_),
                          memory_.read_as<std::uint64_t>(y + value_off_));
}

}  // namespace pulse::ds
