#include "ds/bptree.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "common/logging.h"

namespace pulse::ds {
namespace {

constexpr Bytes kNodeBytes = 256;

std::string
lbl(const char* stem, std::uint32_t i)
{
    return std::string(stem) + std::to_string(i);
}

}  // namespace

BPTree::BPTree(mem::GlobalMemory& memory, mem::ClusterAllocator& alloc,
               const BPTreeConfig& config)
    : memory_(memory), alloc_(alloc), config_(config)
{
    PULSE_ASSERT(config.leaf_slots >= 1 && config.leaf_slots <= 15,
                 "leaf_slots out of range");
    PULSE_ASSERT(config.leaf_fill >= 1 &&
                     config.leaf_fill <= config.leaf_slots,
                 "leaf_fill out of range");
    PULSE_ASSERT(config.inner_fill >= 2 && config.inner_fill <= 16,
                 "inner_fill out of range");
    PULSE_ASSERT(config.partitions >= 1 &&
                     config.partitions <= memory.num_nodes(),
                 "bad partition count");
}

VirtAddr
BPTree::alloc_node(NodeId preferred, NodeId* placed)
{
    VirtAddr addr;
    if (config_.partitioned) {
        addr = alloc_.alloc_on(preferred, kNodeBytes, kNodeBytes);
        if (placed != nullptr) {
            *placed = preferred;
        }
    } else {
        addr = alloc_.alloc(kNodeBytes, kNodeBytes);
        if (placed != nullptr) {
            *placed = *memory_.address_map().node_for(addr);
        }
    }
    PULSE_ASSERT(addr != kNullAddr, "out of memory for tree node");
    return addr;
}

void
BPTree::build(const std::vector<BPTreeEntry>& sorted_entries)
{
    PULSE_ASSERT(root_ == kNullAddr, "tree already built");
    PULSE_ASSERT(!sorted_entries.empty(), "empty build");
    for (std::size_t i = 1; i < sorted_entries.size(); i++) {
        PULSE_ASSERT(sorted_entries[i - 1].key < sorted_entries[i].key,
                     "keys must be strictly increasing");
    }
    PULSE_ASSERT(sorted_entries.back().key < kPadKey,
                 "keys must stay below kPadKey");

    size_ = sorted_entries.size();
    const std::uint64_t fill = config_.leaf_fill;
    num_leaves_ = (size_ + fill - 1) / fill;

    // ---- Value objects (out-of-line payloads) ----
    // Allocated before the leaves, optionally in shuffled key order
    // (see BPTreeConfig::scatter_values).
    std::vector<VirtAddr> value_addrs;
    if (!config_.inline_values) {
        value_addrs.assign(size_, kNullAddr);
        std::vector<std::uint64_t> order(size_);
        for (std::uint64_t i = 0; i < size_; i++) {
            order[i] = i;
        }
        if (config_.scatter_values) {
            Rng shuffle_rng(0x5CA77E5);
            for (std::uint64_t i = size_; i > 1; i--) {
                std::swap(order[i - 1],
                          order[shuffle_rng.next_below(i)]);
            }
        }
        std::vector<std::uint8_t> vbuf(config_.value_bytes);
        for (const std::uint64_t index : order) {
            // Under partitioned placement, co-locate the value with
            // its leaf's partition.
            const NodeId preferred = static_cast<NodeId>(
                (index / fill) * config_.partitions / num_leaves_);
            const VirtAddr value =
                config_.partitioned
                    ? alloc_.alloc_on(preferred, config_.value_bytes,
                                      256)
                    : alloc_.alloc(config_.value_bytes, 256);
            PULSE_ASSERT(value != kNullAddr,
                         "out of memory for value object");
            fill_value_pattern(sorted_entries[index].key, vbuf.data(),
                               vbuf.size());
            memory_.write(value, vbuf.data(), vbuf.size());
            value_addrs[index] = value;
        }
    }

    // ---- Leaf level ----
    std::vector<LevelNode> level;
    level.reserve(num_leaves_);
    VirtAddr prev_leaf = kNullAddr;
    for (std::uint64_t li = 0; li < num_leaves_; li++) {
        const std::uint64_t begin = li * fill;
        const std::uint64_t end =
            std::min<std::uint64_t>(begin + fill, size_);
        const auto count = static_cast<std::uint32_t>(end - begin);
        const NodeId preferred = static_cast<NodeId>(
            li * config_.partitions / num_leaves_);

        NodeId placed = 0;
        const VirtAddr addr = alloc_node(preferred, &placed);
        if (config_.leaf_alloc_gap_max > 0) {
            // Fragmentation model: waste a random gap after the leaf,
            // drawn from the same allocation stream so it interleaves
            // with the leaves (within uniform-policy slabs too).
            const Bytes gap =
                gap_rng_.next_below(config_.leaf_alloc_gap_max + 1);
            if (gap > 0) {
                if (config_.partitioned) {
                    alloc_.alloc_on(placed, gap, 1);
                } else {
                    alloc_.alloc(gap, 1);
                }
            }
        }

        std::uint8_t buffer[kNodeBytes] = {};
        const std::uint64_t meta =
            (static_cast<std::uint64_t>(count) << 8) | 1;
        std::memcpy(buffer + kMetaOff, &meta, 8);
        // next patched when the successor leaf is allocated.
        for (std::uint32_t s = 0; s < config_.leaf_slots; s++) {
            std::uint64_t key = kPadKey;
            std::uint64_t payload = 0;
            if (s < count) {
                const BPTreeEntry& entry = sorted_entries[begin + s];
                key = entry.key;
                payload = config_.inline_values
                              ? entry.payload
                              : value_addrs[begin + s];
            }
            const std::uint32_t off = kLeafSlotsOff + s * kLeafSlotBytes;
            std::memcpy(buffer + off, &key, 8);
            std::memcpy(buffer + off + 8, &payload, 8);
        }
        memory_.write(addr, buffer, kNodeBytes);

        if (prev_leaf != kNullAddr) {
            memory_.write_as<std::uint64_t>(prev_leaf + kLeafNextOff,
                                            addr);
        } else {
            first_leaf_ = addr;
        }
        prev_leaf = addr;
        level.push_back(LevelNode{addr,
                                  sorted_entries[end - 1].key, placed});
        leaf_index_.emplace_back(sorted_entries[end - 1].key, placed);
    }
    depth_ = 1;

    // ---- Inner levels ----
    while (level.size() > 1) {
        std::vector<LevelNode> parent_level;
        const std::uint64_t fanout = config_.inner_fill;
        const std::uint64_t parents =
            (level.size() + fanout - 1) / fanout;
        parent_level.reserve(parents);
        for (std::uint64_t pi = 0; pi < parents; pi++) {
            const std::uint64_t begin = pi * fanout;
            const std::uint64_t end =
                std::min<std::uint64_t>(begin + fanout, level.size());
            const auto children = static_cast<std::uint32_t>(end - begin);

            NodeId placed = 0;
            const VirtAddr addr =
                alloc_node(level[begin].placed_on, &placed);

            std::uint8_t buffer[kNodeBytes] = {};
            // count = number of separator keys = children - 1;
            // keys[i] = max key of child i.
            const std::uint64_t meta =
                static_cast<std::uint64_t>(children - 1) << 8;
            std::memcpy(buffer + kMetaOff, &meta, 8);
            for (std::uint32_t c = 0; c < children; c++) {
                if (c + 1 < children) {
                    std::memcpy(buffer + kInnerKeysOff + c * 8,
                                &level[begin + c].max_key, 8);
                }
                std::memcpy(buffer + kInnerChildrenOff + c * 8,
                            &level[begin + c].addr, 8);
            }
            // Pad unused key slots so stray compares sort high.
            for (std::uint32_t k = children > 0 ? children - 1 : 0;
                 k < kInnerMaxKeys; k++) {
                std::memcpy(buffer + kInnerKeysOff + k * 8, &kPadKey, 8);
            }
            memory_.write(addr, buffer, kNodeBytes);
            parent_level.push_back(
                LevelNode{addr, level[end - 1].max_key, placed});
        }
        level = std::move(parent_level);
        depth_++;
    }
    root_ = level.front().addr;
}

NodeId
BPTree::node_of_key(std::uint64_t key) const
{
    const auto it = std::lower_bound(
        leaf_index_.begin(), leaf_index_.end(), key,
        [](const std::pair<std::uint64_t, NodeId>& e,
           std::uint64_t k) { return e.first < k; });
    if (it == leaf_index_.end()) {
        return leaf_index_.back().second;
    }
    return it->second;
}

// ---------------------------------------------------------------------
// Programs
// ---------------------------------------------------------------------

void
BPTree::emit_descend(isa::ProgramBuilder& b,
                     const std::string& leaf_label) const
{
    using isa::cur;
    using isa::dat;
    using isa::imm;
    using isa::sp;

    // Leaf test: meta bit 0.
    b.move(sp(kSpTmp), dat(kMetaOff))
        .band(sp(kSpTmp), sp(kSpTmp), imm(1))
        .compare(sp(kSpTmp), imm(1))
        .jump_eq(leaf_label)
        // count = meta >> 8 (DIV doubles as the shift).
        .move(sp(kSpCnt), dat(kMetaOff))
        .div(sp(kSpCnt), sp(kSpCnt), imm(256));

    // Unrolled Google-btree routing: child[i] for the first i with
    // i >= count (i.e. i == count) or key <= keys[i].
    for (std::uint32_t i = 0; i < kInnerMaxKeys; i++) {
        b.compare(imm(i), sp(kSpCnt))
            .jump_ge(lbl("take", i))
            .compare(sp(kSpKey), dat(kInnerKeysOff + i * 8))
            .jump_le(lbl("take", i));
    }
    // Fallthrough: key greater than every separator -> last child.
    b.label(lbl("take", kInnerMaxKeys))
        .move(cur(), dat(kInnerChildrenOff + kInnerMaxKeys * 8))
        .next_iter();
    for (std::uint32_t i = 0; i < kInnerMaxKeys; i++) {
        b.label(lbl("take", i))
            .move(cur(), dat(kInnerChildrenOff + i * 8))
            .next_iter();
    }
}

std::shared_ptr<const isa::Program>
BPTree::find_program() const
{
    if (find_program_) {
        return find_program_;
    }
    using isa::dat;
    using isa::imm;
    using isa::sp;

    isa::ProgramBuilder b;
    b.load(256);
    emit_descend(b, "leaf");
    b.label("leaf");
    for (std::uint32_t i = 0; i < config_.leaf_slots; i++) {
        const std::uint32_t off = kLeafSlotsOff + i * kLeafSlotBytes;
        b.compare(sp(kSpKey), dat(off)).jump_eq(lbl("found", i));
    }
    b.move(sp(kSpFlag), imm(kKeyNotFound)).ret();
    for (std::uint32_t i = 0; i < config_.leaf_slots; i++) {
        const std::uint32_t off = kLeafSlotsOff + i * kLeafSlotBytes;
        b.label(lbl("found", i))
            .move(sp(kSpResult), dat(off + 8))
            .move(sp(kSpFlag), imm(1))
            .ret();
    }
    b.scratch_bytes(kSpBytes);
    find_program_ = std::make_shared<const isa::Program>(b.build());
    return find_program_;
}

std::shared_ptr<const isa::Program>
BPTree::scan_fold_program() const
{
    PULSE_ASSERT(!config_.inline_values,
                 "scan-fold expects out-of-line value objects");
    if (scan_program_) {
        return scan_program_;
    }
    using isa::cur;
    using isa::dat;
    using isa::imm;
    using isa::sp;

    const std::uint32_t slots = config_.leaf_slots;
    const auto stage_bytes =
        static_cast<std::uint16_t>(slots * kLeafSlotBytes);

    isa::ProgramBuilder b;
    b.load(256)
        // Phase dispatch: >= 2 -> value phases, == 1 -> leaf, else
        // descend.
        .compare(sp(kSpPhase), imm(2))
        .jump_ge("values")
        .compare(sp(kSpPhase), imm(1))
        .jump_eq("leafsec");
    emit_descend(b, "enterleaf");
    b.label("enterleaf").move(sp(kSpPhase), imm(1));

    // Leaf phase: stage the whole slot array + next pointer into the
    // scratch_pad (two moves), pick the first slot to consume, and
    // jump into its value phase.
    b.label("leafsec")
        .move(sp(kSpNextStage), dat(kLeafNextOff))
        .move(sp(kSpStage, stage_bytes),
              dat(kLeafSlotsOff, stage_bytes));
    for (std::uint32_t j = 0; j < slots; j++) {
        const std::uint32_t key_off = kSpStage + j * kLeafSlotBytes;
        // Padding ends the leaf; keys below the start key are skipped
        // (only possible in the first leaf).
        b.compare(sp(key_off), imm(kPadKey))
            .jump_eq("advance")
            .compare(sp(key_off), sp(kSpKey))
            .jump_ge(lbl("start", j));
    }
    // Every real key is below the start key: advance.
    b.label("advance")
        .compare(sp(kSpNextStage), imm(0))
        .jump_eq("finish")
        .move(cur(), sp(kSpNextStage))
        .next_iter();
    for (std::uint32_t j = 0; j < slots; j++) {
        const std::uint32_t ptr_off =
            kSpStage + j * kLeafSlotBytes + 8;
        b.label(lbl("start", j))
            .move(cur(), sp(ptr_off))
            .move(sp(kSpPhase), imm(2 + j))
            .next_iter();
    }

    // Value phases: data holds the 240 B value object of staged slot j.
    b.label("values");
    for (std::uint32_t j = 0; j < slots; j++) {
        b.compare(sp(kSpPhase), imm(2 + j)).jump_eq(lbl("val", j));
    }
    b.jump_always("finish");  // unreachable with a sane phase
    for (std::uint32_t j = 0; j < slots; j++) {
        const std::uint32_t key_off = kSpStage + j * kLeafSlotBytes;
        b.label(lbl("val", j))
            .add(sp(kSpResult), sp(kSpResult), dat(0))
            .add(sp(kSpCount), sp(kSpCount), imm(1))
            .move(sp(kSpLastKey), sp(key_off))
            .sub(sp(kSpRemaining), sp(kSpRemaining), imm(1))
            .compare(sp(kSpRemaining), imm(0))
            .jump_eq("finish");
        if (j + 1 < slots) {
            const std::uint32_t next_key =
                kSpStage + (j + 1) * kLeafSlotBytes;
            b.compare(sp(next_key), imm(kPadKey))
                .jump_eq(lbl("adv", j))
                .move(cur(), sp(next_key + 8))
                .move(sp(kSpPhase), imm(2 + j + 1))
                .next_iter()
                .label(lbl("adv", j));
        }
        // Leaf exhausted: move to the staged next leaf.
        b.compare(sp(kSpNextStage), imm(0))
            .jump_eq("finish")
            .move(cur(), sp(kSpNextStage))
            .move(sp(kSpPhase), imm(1))
            .next_iter();
    }
    b.label("finish").move(sp(kSpFlag), imm(1)).ret();
    b.scratch_bytes(kSpStage + slots * kLeafSlotBytes);
    scan_program_ = std::make_shared<const isa::Program>(b.build());
    return scan_program_;
}

std::shared_ptr<const isa::Program>
BPTree::aggregate_program(AggKind kind) const
{
    PULSE_ASSERT(config_.inline_values,
                 "aggregate expects inline payloads");
    auto& slot = agg_programs_[static_cast<std::size_t>(kind)];
    if (slot) {
        return slot;
    }
    using isa::cur;
    using isa::dat;
    using isa::imm;
    using isa::sp;

    isa::ProgramBuilder b;
    b.load(256)
        .compare(sp(kSpPhase), imm(1))
        .jump_eq("scansec");
    emit_descend(b, "enterleaf");
    b.label("enterleaf").move(sp(kSpPhase), imm(1));
    b.label("scansec");
    for (std::uint32_t i = 0; i < config_.leaf_slots; i++) {
        const std::uint32_t key_off = kLeafSlotsOff + i * kLeafSlotBytes;
        const std::uint32_t val_off = key_off + 8;
        // Keys are sorted; padding (INT64_MAX) exceeds any hi bound.
        b.compare(dat(key_off), sp(kSpKey2))
            .jump_gt("finish")
            .compare(dat(key_off), sp(kSpKey))
            .jump_lt(lbl("skip", i));
        switch (kind) {
          case AggKind::kSum:
            b.add(sp(kSpResult), sp(kSpResult), dat(val_off))
                .add(sp(kSpCount), sp(kSpCount), imm(1));
            break;
          case AggKind::kCount:
            b.add(sp(kSpCount), sp(kSpCount), imm(1));
            break;
          case AggKind::kMin:
            b.compare(dat(val_off), sp(kSpResult))
                .jump_ge(lbl("skip", i))
                .move(sp(kSpResult), dat(val_off));
            break;
          case AggKind::kMax:
            b.compare(dat(val_off), sp(kSpResult))
                .jump_le(lbl("skip", i))
                .move(sp(kSpResult), dat(val_off));
            break;
        }
        b.label(lbl("skip", i));
    }
    b.compare(dat(kLeafNextOff), imm(0))
        .jump_eq("finish")
        .move(cur(), dat(kLeafNextOff))
        .next_iter();
    b.label("finish").move(sp(kSpFlag), imm(1)).ret();
    b.scratch_bytes(kSpBytes);
    slot = std::make_shared<const isa::Program>(b.build());
    return slot;
}

std::shared_ptr<const isa::Program>
BPTree::aggregate_forked_program() const
{
    PULSE_ASSERT(config_.inline_values,
                 "aggregate expects inline payloads");
    if (agg_forked_program_) {
        return agg_forked_program_;
    }
    using isa::cur;
    using isa::dat;
    using isa::imm;
    using isa::sp;

    isa::ProgramBuilder b;
    b.load(256)
        .reduce(isa::ReduceOp::kAdd, kFkSum, 2)
        .compare(sp(kFkPhase), imm(1))
        .jump_eq("scansec")
        .compare(sp(kFkDepth), imm(0))
        .jump_neq("seq");

    // Root visit. A root that is itself a leaf scans sequentially.
    b.move(sp(kSpTmp), dat(kMetaOff))
        .band(sp(kSpTmp), sp(kSpTmp), imm(1))
        .compare(sp(kSpTmp), imm(1))
        .jump_eq("enterleaf");

    // Inner root: the window is split into at most kMaxSpawnsPerVisit
    // disjoint chunks at the separator keys, one SPAWN per chunk.
    // Chunk s starts at child 2s and covers children 2s and 2s+1 —
    // the spawned traversal descends by its chunk's lo and the leaf
    // sibling chain carries its scan across the pair's boundary, so
    // even a full root (16 children) forks within the per-visit spawn
    // budget. The chunk windows are narrowed to the separator ranges,
    // so they are disjoint and no entry is counted twice.
    static_assert(kInnerMaxKeys + 1 <= 2 * isa::kMaxSpawnsPerVisit,
                  "pairwise chunking must cover a full root");
    b.move(sp(kFkOwnLo), sp(kFkLo))
        .move(sp(kFkOwnHi), sp(kFkHi))
        .move(sp(kSpCnt), dat(kMetaOff))
        .div(sp(kSpCnt), sp(kSpCnt), imm(256));
    for (std::uint32_t s = 0; s < isa::kMaxSpawnsPerVisit; s++) {
        const std::uint32_t first = 2 * s;  // chunk's first child
        // Chunks whose first child is past the last one don't exist.
        b.compare(imm(first), sp(kSpCnt)).jump_gt("spawned");
        // chunk_hi = min(hi, keys[2s+1]); the last chunk is uncapped.
        b.move(sp(kFkChildHi), sp(kFkOwnHi));
        if (first + 1 < kInnerMaxKeys) {
            b.compare(imm(first + 1), sp(kSpCnt))
                .jump_ge(lbl("nocap", s))
                .compare(dat(kInnerKeysOff + (first + 1) * 8),
                         sp(kFkChildHi))
                .jump_ge(lbl("nocap", s))
                .move(sp(kFkChildHi),
                      dat(kInnerKeysOff + (first + 1) * 8))
                .label(lbl("nocap", s));
        }
        // chunk_lo = max(lo, keys[2s-1] + 1).
        b.move(sp(kFkChildLo), sp(kFkOwnLo));
        if (s > 0) {
            b.move(sp(kFkTmp), dat(kInnerKeysOff + (first - 1) * 8))
                .add(sp(kFkTmp), sp(kFkTmp), imm(1))
                .compare(sp(kFkTmp), sp(kFkChildLo))
                .jump_le(lbl("noraise", s))
                .move(sp(kFkChildLo), sp(kFkTmp))
                .label(lbl("noraise", s));
        }
        b.compare(sp(kFkChildLo), sp(kFkChildHi))
            .jump_gt(lbl("skip", s))
            // Stage the chunk's argument window and fork.
            .move(sp(kFkLo), sp(kFkChildLo))
            .move(sp(kFkHi), sp(kFkChildHi))
            .move(sp(kFkDepth), imm(1))
            .spawn(dat(kInnerChildrenOff + first * 8), 0, kFkArgBytes)
            .label(lbl("skip", s));
    }
    b.label("spawned").move(sp(kFkFlag), imm(1)).join();

    // Child path: sequential descend by lo, then the windowed scan.
    b.label("seq");
    emit_descend(b, "enterleaf");
    b.label("enterleaf").move(sp(kFkPhase), imm(1));
    b.label("scansec");
    for (std::uint32_t i = 0; i < config_.leaf_slots; i++) {
        const std::uint32_t key_off = kLeafSlotsOff + i * kLeafSlotBytes;
        const std::uint32_t val_off = key_off + 8;
        // Keys are sorted; padding (INT64_MAX) exceeds any hi bound.
        b.compare(dat(key_off), sp(kFkHi))
            .jump_gt("finish")
            .compare(dat(key_off), sp(kFkLo))
            .jump_lt(lbl("fskip", i))
            .add(sp(kFkSum), sp(kFkSum), dat(val_off))
            .add(sp(kFkCount), sp(kFkCount), imm(1))
            .label(lbl("fskip", i));
    }
    b.compare(dat(kLeafNextOff), imm(0))
        .jump_eq("finish")
        .move(cur(), dat(kLeafNextOff))
        .next_iter();
    // JOIN with no outstanding branches completes immediately (the
    // terminal of fork leaves; RETURN is illegal in forking programs).
    b.label("finish").move(sp(kFkFlag), imm(1)).join();

    b.scratch_bytes(kFkBytes);
    b.max_spawn_depth(1);
    agg_forked_program_ =
        std::make_shared<const isa::Program>(b.build());
    return agg_forked_program_;
}

// ---------------------------------------------------------------------
// Operations
// ---------------------------------------------------------------------

std::uint64_t
BPTree::agg_init(AggKind kind)
{
    switch (kind) {
      case AggKind::kMin:
        return 0x7FFFFFFFFFFFFFFFull;  // INT64_MAX
      case AggKind::kMax:
        return 0x8000000000000000ull;  // INT64_MIN
      default:
        return 0;
    }
}

offload::Operation
BPTree::make_find(std::uint64_t key, offload::CompletionFn done) const
{
    offload::Operation op;
    op.program = find_program();
    op.start_ptr = root_;
    op.init_scratch.assign(kSpBytes, 0);
    std::memcpy(op.init_scratch.data() + kSpKey, &key, 8);
    op.init_cpu_time = nanos(30.0);
    op.done = std::move(done);
    return op;
}

offload::Operation
BPTree::make_scan(std::uint64_t start_key, std::uint64_t count,
                  offload::CompletionFn done) const
{
    PULSE_ASSERT(count >= 1, "scan of zero entries");
    offload::Operation op;
    op.program = scan_fold_program();
    op.start_ptr = root_;
    op.init_scratch.assign(
        kSpStage + config_.leaf_slots * kLeafSlotBytes, 0);
    std::memcpy(op.init_scratch.data() + kSpKey, &start_key, 8);
    std::memcpy(op.init_scratch.data() + kSpRemaining, &count, 8);
    op.init_cpu_time = nanos(35.0);
    op.done = std::move(done);
    return op;
}

offload::Operation
BPTree::make_aggregate(AggKind kind, std::uint64_t lo, std::uint64_t hi,
                       offload::CompletionFn done) const
{
    PULSE_ASSERT(lo <= hi, "empty window");
    offload::Operation op;
    op.program = aggregate_program(kind);
    op.start_ptr = root_;
    op.init_scratch.assign(kSpBytes, 0);
    std::memcpy(op.init_scratch.data() + kSpKey, &lo, 8);
    std::memcpy(op.init_scratch.data() + kSpKey2, &hi, 8);
    const std::uint64_t init = agg_init(kind);
    std::memcpy(op.init_scratch.data() + kSpResult, &init, 8);
    op.init_cpu_time = nanos(35.0);
    op.done = std::move(done);
    return op;
}

offload::Operation
BPTree::make_aggregate_forked(std::uint64_t lo, std::uint64_t hi,
                              offload::CompletionFn done) const
{
    PULSE_ASSERT(lo <= hi, "empty window");
    offload::Operation op;
    op.program = aggregate_forked_program();
    op.start_ptr = root_;
    op.init_scratch.assign(kFkBytes, 0);
    std::memcpy(op.init_scratch.data() + kFkLo, &lo, 8);
    std::memcpy(op.init_scratch.data() + kFkHi, &hi, 8);
    op.init_cpu_time = nanos(35.0);
    op.done = std::move(done);
    return op;
}

// ---------------------------------------------------------------------
// Completion parsing
// ---------------------------------------------------------------------

BPTree::FindResult
BPTree::parse_find(const offload::Completion& completion)
{
    FindResult result;
    if (completion.status != isa::TraversalStatus::kDone) {
        return result;
    }
    if (scratch_word(completion, kSpFlag) != 1) {
        return result;
    }
    result.found = true;
    result.payload = scratch_word(completion, kSpResult);
    return result;
}

BPTree::ScanResult
BPTree::parse_scan(const offload::Completion& completion)
{
    ScanResult result;
    if (completion.status != isa::TraversalStatus::kDone) {
        return result;
    }
    result.complete = scratch_word(completion, kSpFlag) == 1;
    result.count = scratch_word(completion, kSpCount);
    result.fold = scratch_word(completion, kSpResult);
    result.last_key = scratch_word(completion, kSpLastKey);
    return result;
}

BPTree::AggResult
BPTree::parse_aggregate(const offload::Completion& completion,
                        AggKind kind)
{
    AggResult result;
    if (completion.status != isa::TraversalStatus::kDone) {
        return result;
    }
    result.complete = scratch_word(completion, kSpFlag) == 1;
    result.count = scratch_word(completion, kSpCount);
    result.value = static_cast<std::int64_t>(
        kind == AggKind::kCount ? result.count
                                : scratch_word(completion, kSpResult));
    return result;
}

BPTree::AggResult
BPTree::parse_aggregate_forked(const offload::Completion& completion)
{
    AggResult result;
    if (completion.status != isa::TraversalStatus::kDone) {
        return result;
    }
    result.complete = scratch_word(completion, kFkFlag) == 1;
    result.count = scratch_word(completion, kFkCount);
    result.value =
        static_cast<std::int64_t>(scratch_word(completion, kFkSum));
    return result;
}

// ---------------------------------------------------------------------
// Host-side references
// ---------------------------------------------------------------------

VirtAddr
BPTree::descend_reference(std::uint64_t key) const
{
    VirtAddr node = root_;
    for (;;) {
        const std::uint64_t meta = memory_.read_as<std::uint64_t>(node);
        if (meta & 1) {
            return node;
        }
        const auto count = static_cast<std::uint32_t>(meta >> 8);
        std::uint32_t child = count;
        for (std::uint32_t i = 0; i < count; i++) {
            const std::uint64_t sep = memory_.read_as<std::uint64_t>(
                node + kInnerKeysOff + i * 8);
            if (key <= sep) {
                child = i;
                break;
            }
        }
        node = memory_.read_as<std::uint64_t>(node + kInnerChildrenOff +
                                              child * 8);
    }
}

std::optional<std::uint64_t>
BPTree::find_reference(std::uint64_t key) const
{
    const VirtAddr leaf = descend_reference(key);
    const std::uint64_t meta = memory_.read_as<std::uint64_t>(leaf);
    const auto count = static_cast<std::uint32_t>(meta >> 8);
    for (std::uint32_t s = 0; s < count; s++) {
        const VirtAddr off = leaf + kLeafSlotsOff + s * kLeafSlotBytes;
        if (memory_.read_as<std::uint64_t>(off) == key) {
            return memory_.read_as<std::uint64_t>(off + 8);
        }
    }
    return std::nullopt;
}

BPTree::ScanResult
BPTree::scan_reference(std::uint64_t start_key,
                       std::uint64_t count) const
{
    PULSE_ASSERT(!config_.inline_values,
                 "scan expects out-of-line value objects");
    ScanResult result;
    result.complete = true;
    VirtAddr leaf = descend_reference(start_key);
    while (leaf != kNullAddr && result.count < count) {
        const std::uint64_t meta = memory_.read_as<std::uint64_t>(leaf);
        const auto used = static_cast<std::uint32_t>(meta >> 8);
        for (std::uint32_t s = 0; s < used && result.count < count;
             s++) {
            const VirtAddr off =
                leaf + kLeafSlotsOff + s * kLeafSlotBytes;
            const std::uint64_t key =
                memory_.read_as<std::uint64_t>(off);
            if (key < start_key) {
                continue;
            }
            const VirtAddr value =
                memory_.read_as<std::uint64_t>(off + 8);
            result.fold += memory_.read_as<std::uint64_t>(value);
            result.count++;
            result.last_key = key;
        }
        leaf = memory_.read_as<std::uint64_t>(leaf + kLeafNextOff);
    }
    return result;
}

BPTree::AggResult
BPTree::aggregate_reference(AggKind kind, std::uint64_t lo,
                            std::uint64_t hi) const
{
    PULSE_ASSERT(config_.inline_values, "aggregate expects inline");
    AggResult result;
    result.complete = true;
    std::uint64_t acc = agg_init(kind);
    VirtAddr leaf = descend_reference(lo);
    bool done = false;
    while (leaf != kNullAddr && !done) {
        const std::uint64_t meta = memory_.read_as<std::uint64_t>(leaf);
        const auto used = static_cast<std::uint32_t>(meta >> 8);
        for (std::uint32_t s = 0; s < used; s++) {
            const VirtAddr off =
                leaf + kLeafSlotsOff + s * kLeafSlotBytes;
            const std::uint64_t key =
                memory_.read_as<std::uint64_t>(off);
            if (key > hi) {
                done = true;
                break;
            }
            if (key < lo) {
                continue;
            }
            const std::uint64_t value =
                memory_.read_as<std::uint64_t>(off + 8);
            switch (kind) {
              case AggKind::kSum:
                acc += value;
                result.count++;
                break;
              case AggKind::kCount:
                result.count++;
                break;
              case AggKind::kMin:
                if (static_cast<std::int64_t>(value) <
                    static_cast<std::int64_t>(acc)) {
                    acc = value;
                }
                result.count++;
                break;
              case AggKind::kMax:
                if (static_cast<std::int64_t>(value) >
                    static_cast<std::int64_t>(acc)) {
                    acc = value;
                }
                result.count++;
                break;
            }
        }
        leaf = memory_.read_as<std::uint64_t>(leaf + kLeafNextOff);
    }
    result.value = static_cast<std::int64_t>(
        kind == AggKind::kCount ? result.count : acc);
    return result;
}

}  // namespace pulse::ds
