#include "ds/prox_graph.h"

#include <cstring>
#include <string>

#include "common/logging.h"

namespace pulse::ds {
namespace {

std::string
lbl(const char* stem, std::uint32_t i)
{
    return std::string(stem) + std::to_string(i);
}

std::uint64_t
abs_distance(std::uint64_t a, std::uint64_t b)
{
    return a > b ? a - b : b - a;
}

}  // namespace

ProxGraph::ProxGraph(mem::GlobalMemory& memory,
                     mem::ClusterAllocator& alloc)
    : memory_(memory), alloc_(alloc)
{
}

void
ProxGraph::build(const std::vector<std::uint64_t>& sorted_keys,
                 NodeId node)
{
    PULSE_ASSERT(entry_ == kNullAddr, "graph already built");
    PULSE_ASSERT(!sorted_keys.empty(), "empty build");
    for (std::size_t i = 1; i < sorted_keys.size(); i++) {
        PULSE_ASSERT(sorted_keys[i - 1] < sorted_keys[i],
                     "keys must be strictly increasing");
    }
    size_ = sorted_keys.size();

    // Allocate all vertices first so links can be written in one pass.
    std::vector<VirtAddr> vertices(size_);
    for (std::uint64_t i = 0; i < size_; i++) {
        vertices[i] =
            node == kInvalidNode
                ? alloc_.alloc(kNodeBytes, 256)
                : alloc_.alloc_on(node, kNodeBytes, 256);
        PULSE_ASSERT(vertices[i] != kNullAddr,
                     "out of memory for graph vertex");
    }

    const std::int64_t strides[] = {-8, -4, -2, -1, 1, 2, 4, 8};
    for (std::uint64_t i = 0; i < size_; i++) {
        std::uint8_t buffer[kNodeBytes] = {};
        std::memcpy(buffer + kKeyOff, &sorted_keys[i], 8);
        std::uint64_t count = 0;
        for (const std::int64_t stride : strides) {
            const std::int64_t j = static_cast<std::int64_t>(i) + stride;
            if (j < 0 || j >= static_cast<std::int64_t>(size_)) {
                continue;
            }
            const std::uint32_t off =
                kLinksOff + static_cast<std::uint32_t>(count) * 16;
            std::memcpy(buffer + off, &sorted_keys[j], 8);
            std::memcpy(buffer + off + 8, &vertices[j], 8);
            count++;
        }
        std::memcpy(buffer + kNumOff, &count, 8);
        // Pad unused link slots so the unrolled scan skips them.
        for (std::uint64_t s = count; s < kNeighbors; s++) {
            const std::uint32_t off =
                kLinksOff + static_cast<std::uint32_t>(s) * 16;
            std::memcpy(buffer + off, &kPadKey, 8);
        }
        memory_.write(vertices[i], buffer, kNodeBytes);
    }
    entry_ = vertices[size_ / 2];
}

std::shared_ptr<const isa::Program>
ProxGraph::greedy_program() const
{
    if (program_) {
        return program_;
    }
    using isa::cur;
    using isa::dat;
    using isa::imm;
    using isa::sp;

    isa::ProgramBuilder b;
    b.load(kNodeBytes)
        // cur_dist = |key - target|
        .compare(dat(kKeyOff), sp(kSpTarget))
        .jump_ge("cur_ge")
        .sub(sp(kSpCurDist), sp(kSpTarget), dat(kKeyOff))
        .jump_always("scan")
        .label("cur_ge")
        .sub(sp(kSpCurDist), dat(kKeyOff), sp(kSpTarget))
        .label("scan")
        // best = cur_dist; best_ptr = 0 (meaning "stay here").
        .move(sp(kSpBestDist), sp(kSpCurDist))
        .move(sp(kSpBestPtr), imm(0));
    for (std::uint32_t i = 0; i < kNeighbors; i++) {
        const std::uint32_t key_off = kLinksOff + i * 16;
        const std::uint32_t ptr_off = key_off + 8;
        // tmp = |nbr_key - target| (padding keys give huge distances)
        b.compare(dat(key_off), sp(kSpTarget))
            .jump_ge(lbl("ge", i))
            .sub(sp(kSpTmp), sp(kSpTarget), dat(key_off))
            .jump_always(lbl("cmp", i))
            .label(lbl("ge", i))
            .sub(sp(kSpTmp), dat(key_off), sp(kSpTarget))
            .label(lbl("cmp", i))
            .compare(sp(kSpTmp), sp(kSpBestDist))
            .jump_ge(lbl("skip", i))
            .move(sp(kSpBestDist), sp(kSpTmp))
            .move(sp(kSpBestPtr), dat(ptr_off))
            .label(lbl("skip", i));
    }
    // No strictly closer neighbour: this vertex is the local minimum.
    b.compare(sp(kSpBestPtr), imm(0))
        .jump_neq("hop")
        .move(sp(kSpFoundKey), dat(kKeyOff))
        .move(sp(kSpFoundPtr), cur())
        .ret()
        .label("hop")
        .move(cur(), sp(kSpBestPtr))
        .next_iter();
    b.scratch_bytes(kSpBytes);
    program_ = std::make_shared<const isa::Program>(b.build());
    return program_;
}

offload::Operation
ProxGraph::make_search(std::uint64_t target,
                       offload::CompletionFn done) const
{
    offload::Operation op;
    op.program = greedy_program();
    op.start_ptr = entry_;
    op.init_scratch.assign(kSpBytes, 0);
    std::memcpy(op.init_scratch.data() + kSpTarget, &target, 8);
    op.init_cpu_time = nanos(30.0);
    op.done = std::move(done);
    return op;
}

ProxGraph::SearchResult
ProxGraph::parse_search(const offload::Completion& completion)
{
    SearchResult result;
    if (completion.status != isa::TraversalStatus::kDone ||
        completion.scratch.size() < kSpBytes) {
        return result;
    }
    result.complete = true;
    result.key = scratch_word(completion, kSpFoundKey);
    result.vertex = scratch_word(completion, kSpFoundPtr);
    result.distance = scratch_word(completion, kSpBestDist);
    return result;
}

ProxGraph::SearchResult
ProxGraph::search_reference(std::uint64_t target) const
{
    SearchResult result;
    result.complete = true;
    VirtAddr vertex = entry_;
    for (;;) {
        const std::uint64_t key =
            memory_.read_as<std::uint64_t>(vertex + kKeyOff);
        const std::uint64_t count =
            memory_.read_as<std::uint64_t>(vertex + kNumOff);
        std::uint64_t best_dist = abs_distance(key, target);
        VirtAddr best_ptr = kNullAddr;
        for (std::uint64_t i = 0; i < count; i++) {
            const std::uint32_t off =
                kLinksOff + static_cast<std::uint32_t>(i) * 16;
            const std::uint64_t nbr_key =
                memory_.read_as<std::uint64_t>(vertex + off);
            const std::uint64_t dist = abs_distance(nbr_key, target);
            if (dist < best_dist) {
                best_dist = dist;
                best_ptr =
                    memory_.read_as<std::uint64_t>(vertex + off + 8);
            }
        }
        if (best_ptr == kNullAddr) {
            result.key = key;
            result.vertex = vertex;
            result.distance = best_dist;
            return result;
        }
        vertex = best_ptr;
    }
}

std::shared_ptr<const isa::Program>
ProxGraph::nhood_program(std::uint32_t max_hops) const
{
    PULSE_ASSERT(max_hops >= 1 && max_hops <= 3,
                 "hop count outside the fork-depth budget (a 4-hop "
                 "expansion would overrun the fork-node guard)");
    auto& slot = nhood_programs_[max_hops];
    if (slot) {
        return slot;
    }
    using isa::dat;
    using isa::imm;
    using isa::sp;

    // Each sub-traversal is a single iteration: visit the vertex,
    // fold it, fork the links (hops permitting), JOIN. The DAG shape
    // comes entirely from SPAWN — there is no NEXT_ITER chain.
    isa::ProgramBuilder b;
    b.load(static_cast<std::uint32_t>(kNodeBytes))
        .reduce(isa::ReduceOp::kAdd, kNhCount, 2)
        .add(sp(kNhCount), sp(kNhCount), imm(1))
        .add(sp(kNhKeySum), sp(kNhKeySum), dat(kKeyOff))
        .compare(sp(kNhHops), imm(0))
        .jump_eq("done")
        .sub(sp(kNhHops), sp(kNhHops), imm(1));
    for (std::uint32_t i = 0; i < kNeighbors; i++) {
        // Padded slots hold a null pointer: the SPAWN is a no-op.
        b.spawn(dat(kLinksOff + i * 16 + 8), kNhHops, kNhArgBytes);
    }
    b.label("done").move(sp(kNhFlag), imm(1)).join();
    b.scratch_bytes(kNhBytes);
    b.max_spawn_depth(max_hops);
    slot = std::make_shared<const isa::Program>(b.build());
    return slot;
}

offload::Operation
ProxGraph::make_nhood(VirtAddr start, std::uint32_t hops,
                      offload::CompletionFn done) const
{
    offload::Operation op;
    op.program = nhood_program(hops);
    op.start_ptr = start == kNullAddr ? entry_ : start;
    op.init_scratch.assign(kNhBytes, 0);
    const std::uint64_t hops_word = hops;
    std::memcpy(op.init_scratch.data() + kNhHops, &hops_word, 8);
    op.init_cpu_time = nanos(30.0);
    op.done = std::move(done);
    return op;
}

ProxGraph::NhoodResult
ProxGraph::parse_nhood(const offload::Completion& completion)
{
    NhoodResult result;
    if (completion.status != isa::TraversalStatus::kDone ||
        completion.scratch.size() < kNhBytes) {
        return result;
    }
    result.complete = scratch_word(completion, kNhFlag) == 1;
    result.vertices = scratch_word(completion, kNhCount);
    result.key_sum = scratch_word(completion, kNhKeySum);
    return result;
}

ProxGraph::NhoodResult
ProxGraph::nhood_reference(VirtAddr start, std::uint32_t hops) const
{
    NhoodResult result;
    result.complete = true;
    const VirtAddr vertex = start == kNullAddr ? entry_ : start;
    result.vertices = 1;
    result.key_sum = memory_.read_as<std::uint64_t>(vertex + kKeyOff);
    if (hops == 0) {
        return result;
    }
    const std::uint64_t count =
        memory_.read_as<std::uint64_t>(vertex + kNumOff);
    for (std::uint64_t i = 0; i < count; i++) {
        const std::uint32_t off =
            kLinksOff + static_cast<std::uint32_t>(i) * 16;
        const VirtAddr nbr =
            memory_.read_as<std::uint64_t>(vertex + off + 8);
        if (nbr == kNullAddr) {
            continue;
        }
        const NhoodResult sub = nhood_reference(nbr, hops - 1);
        result.vertices += sub.vertices;
        result.key_sum += sub.key_sum;
    }
    return result;
}

}  // namespace pulse::ds
