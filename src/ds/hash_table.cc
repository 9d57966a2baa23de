#include "ds/hash_table.h"

#include <cstring>

#include "common/logging.h"

namespace pulse::ds {

HashTable::HashTable(mem::GlobalMemory& memory,
                     mem::ClusterAllocator& alloc,
                     const HashTableConfig& config)
    : memory_(memory), alloc_(alloc), config_(config)
{
    PULSE_ASSERT(config.num_buckets > 0, "hash table needs buckets");
    PULSE_ASSERT(config.partitions > 0, "partitions must be >= 1");
    PULSE_ASSERT(config.value_bytes >= 8 && config.value_bytes <= 240,
                 "value bytes out of range");
    PULSE_ASSERT(config.partitions <= memory.num_nodes(),
                 "more partitions than memory nodes");

    buckets_per_partition_ =
        (config.num_buckets + config.partitions - 1) / config.partitions;
    partition_base_.resize(config.partitions);
    for (std::uint32_t p = 0; p < config.partitions; p++) {
        // Pad each sub-array so the 256 B phase-0 LOAD at the last
        // bucket slot never runs past the allocation.
        const Bytes bytes = buckets_per_partition_ * 8 + 256;
        partition_base_[p] = alloc_.alloc_on(p, bytes, 256);
        PULSE_ASSERT(partition_base_[p] != kNullAddr,
                     "out of memory for bucket array");
    }
}

std::uint64_t
HashTable::bucket_of(std::uint64_t key) const
{
    if (config_.sequential_buckets) {
        return (key >> 3) % config_.num_buckets;
    }
    return mix64(key) % config_.num_buckets;
}

VirtAddr
HashTable::bucket_slot(std::uint64_t key) const
{
    const std::uint64_t bucket = bucket_of(key);
    const std::uint64_t partition = bucket / buckets_per_partition_;
    const std::uint64_t within = bucket % buckets_per_partition_;
    return partition_base_[partition] + within * 8;
}

NodeId
HashTable::node_of(std::uint64_t key) const
{
    return static_cast<NodeId>(bucket_of(key) / buckets_per_partition_);
}

void
HashTable::insert(std::uint64_t key)
{
    const VirtAddr slot = bucket_slot(key);
    // Chain nodes co-locate with their bucket (key partitioning).
    const VirtAddr node =
        alloc_.alloc_on(node_of(key), node_bytes(), 256);
    PULSE_ASSERT(node != kNullAddr, "out of memory for chain node");

    const VirtAddr head = memory_.read_as<std::uint64_t>(slot);
    std::vector<std::uint8_t> buffer(node_bytes(), 0);
    std::memcpy(buffer.data() + kKeyOff, &key, 8);
    std::memcpy(buffer.data() + kNextOff, &head, 8);
    fill_value_pattern(key, buffer.data() + kValueOff,
                       config_.value_bytes);
    memory_.write(node, buffer.data(), buffer.size());
    memory_.write_as<std::uint64_t>(slot, node);
    size_++;
}

void
HashTable::insert_many(const std::vector<std::uint64_t>& keys)
{
    for (const std::uint64_t key : keys) {
        insert(key);
    }
}

namespace {

/**
 * The two-phase walk find and update share: phase 0 loads the bucket
 * slot to pick up the chain head, phase 1 runs Listing 4's
 * compare/advance logic down the chain. @p found emits what runs at
 * the matching node, before the final RET.
 */
template <typename FoundTail>
std::shared_ptr<const isa::Program>
chain_walk_program(FoundTail&& found)
{
    isa::ProgramBuilder b;
    b.load(256)
        // Phase dispatch: 0 = bucket slot, 1 = chain node.
        .compare(isa::sp(HashTable::kSpPhase), isa::imm(1))
        .jump_eq("chain")
        // Phase 0: the loaded data starts with the bucket head pointer.
        .compare(isa::dat(0), isa::imm(0))
        .jump_eq("notfound")
        .move(isa::cur(), isa::dat(0))
        .move(isa::sp(HashTable::kSpPhase), isa::imm(1))
        .next_iter()
        // Phase 1: Listing 4's chain logic.
        .label("chain")
        .compare(isa::sp(HashTable::kSpKey), isa::dat(HashTable::kKeyOff))
        .jump_eq("found")
        .compare(isa::imm(0), isa::dat(HashTable::kNextOff))
        .jump_eq("notfound")
        .move(isa::cur(), isa::dat(HashTable::kNextOff))
        .next_iter()
        .label("notfound")
        .move(isa::sp(HashTable::kSpFlag), isa::imm(kKeyNotFound))
        .ret()
        .label("found");
    found(b);
    b.ret();
    b.scratch_bytes(HashTable::kSpPhase + 8);
    return std::make_shared<const isa::Program>(b.build());
}

}  // namespace

std::shared_ptr<const isa::Program>
HashTable::find_program() const
{
    if (!find_program_) {
        const auto width = static_cast<std::uint16_t>(config_.value_bytes);
        find_program_ = chain_walk_program([&](isa::ProgramBuilder& b) {
            b.move(isa::sp(kSpFlag), isa::imm(1))
                // Register-vector move: the whole value in one
                // instruction.
                .move(isa::sp(kSpValue, width),
                      isa::dat(kValueOff, width));
        });
    }
    return find_program_;
}

std::shared_ptr<const isa::Program>
HashTable::update_program() const
{
    if (!update_program_) {
        const auto width = static_cast<std::uint16_t>(config_.value_bytes);
        update_program_ = chain_walk_program([&](isa::ProgramBuilder& b) {
            // Stage the new value into the data registers, then write
            // it back over the node's value field.
            b.move(isa::dat(kValueOff, width), isa::sp(kSpValue, width))
                .store(kValueOff, kValueOff, width)
                .move(isa::sp(kSpFlag), isa::imm(1));
        });
    }
    return update_program_;
}

offload::Operation
HashTable::make_update(std::uint64_t key,
                       const std::vector<std::uint8_t>& value,
                       offload::CompletionFn done) const
{
    PULSE_ASSERT(value.size() == config_.value_bytes,
                 "value size mismatch");
    offload::Operation op;
    op.program = update_program();
    op.start_ptr = bucket_slot(key);
    op.init_scratch.assign(kSpPhase + 8, 0);
    std::memcpy(op.init_scratch.data() + kSpKey, &key, 8);
    std::memcpy(op.init_scratch.data() + kSpValue, value.data(),
                value.size());
    op.init_cpu_time = nanos(50.0);
    op.done = std::move(done);
    return op;
}

bool
HashTable::parse_update(const offload::Completion& completion)
{
    return completion.status == isa::TraversalStatus::kDone &&
           scratch_word(completion, kSpFlag) == 1;
}

offload::Operation
HashTable::make_find(std::uint64_t key, offload::CompletionFn done) const
{
    offload::Operation op;
    op.program = find_program();
    op.start_ptr = bucket_slot(key);
    op.init_scratch.assign(kSpPhase + 8, 0);
    std::memcpy(op.init_scratch.data() + kSpKey, &key, 8);
    // init(): hash the key and stage the scratch_pad.
    op.init_cpu_time = nanos(40.0);
    op.done = std::move(done);
    return op;
}

HashTable::FindResult
HashTable::parse_find(const offload::Completion& completion) const
{
    FindResult result;
    if (completion.status != isa::TraversalStatus::kDone ||
        completion.scratch.size() < kSpValue + config_.value_bytes ||
        scratch_word(completion, kSpFlag) != 1) {
        return result;
    }
    result.found = true;
    result.value.assign(
        completion.scratch.begin() + kSpValue,
        completion.scratch.begin() + kSpValue + config_.value_bytes);
    std::memcpy(&result.value_word, result.value.data(), 8);
    return result;
}

std::optional<std::uint64_t>
HashTable::find_reference(std::uint64_t key) const
{
    VirtAddr node = memory_.read_as<std::uint64_t>(bucket_slot(key));
    while (node != kNullAddr) {
        if (memory_.read_as<std::uint64_t>(node + kKeyOff) == key) {
            return memory_.read_as<std::uint64_t>(node + kValueOff);
        }
        node = memory_.read_as<std::uint64_t>(node + kNextOff);
    }
    return std::nullopt;
}

}  // namespace pulse::ds
