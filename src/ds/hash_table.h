/**
 * @file
 * Chained hash table in disaggregated memory (the paper's UPC workload;
 * covers the hash-category adapters of supplementary Table 3: Boost
 * bimap / unordered_map / unordered_set, Listings 3-4, and the main
 * text's unordered_map::find example, Listings 2-4 of section 3/4).
 *
 * Layout:
 *   - bucket array: one u64 head pointer per bucket, partitioned across
 *     memory nodes by contiguous bucket ranges (the paper partitions
 *     UPC's table by key, which is why UPC never crosses nodes —
 *     Table 2's "partitionable" column);
 *   - chain nodes (256 B): key u64 @0 | next u64 @8 | value @16
 *     (kValueBytes = 240 B, the paper's value size).
 *
 * find() is the two-phase traversal of section 4.3: iteration 0 loads
 * the bucket slot to pick up the chain head; subsequent iterations run
 * Listing 4's compare/advance logic. The paper forces a high load
 * factor to lengthen chains (~100 nodes visited per lookup); the
 * default config mirrors that.
 */
#ifndef PULSE_DS_HASH_TABLE_H
#define PULSE_DS_HASH_TABLE_H

#include <memory>
#include <optional>
#include <vector>

#include "ds/ds_common.h"
#include "isa/program.h"
#include "mem/allocator.h"
#include "mem/global_memory.h"
#include "offload/offload_engine.h"

namespace pulse::ds {

/** Hash-table shape parameters. */
struct HashTableConfig
{
    std::uint64_t num_buckets = 1024;

    /** Value bytes stored inline in each chain node. */
    Bytes value_bytes = 240;

    /**
     * Partition buckets (and their chains) across this many memory
     * nodes by contiguous bucket range; 1 keeps everything on node 0.
     */
    std::uint32_t partitions = 1;

    /**
     * Bucket by sequential key index ((key >> 3) % num_buckets, the
     * inverse of workloads::key_of) instead of mix64. Adjacent keys
     * then share nearby buckets, so a skewed generator concentrates
     * load on a contiguous bucket range of one partition — the setup
     * the elastic-placement ablation migrates out of. Default off:
     * mix64 keeps the paper's uniform bucket occupancy.
     */
    bool sequential_buckets = false;
};

/** The remote chained hash table. */
class HashTable
{
  public:
    /** Chain-node field offsets. */
    static constexpr std::uint32_t kKeyOff = 0;
    static constexpr std::uint32_t kNextOff = 8;
    static constexpr std::uint32_t kValueOff = 16;

    /** find() scratch layout. */
    static constexpr std::uint32_t kSpKey = 0;
    static constexpr std::uint32_t kSpFlag = 8;
    static constexpr std::uint32_t kSpValue = 16;
    /** Phase flag lives after the value (value_bytes <= 240). */
    static constexpr std::uint32_t kSpPhase = 256;

    HashTable(mem::GlobalMemory& memory, mem::ClusterAllocator& alloc,
              const HashTableConfig& config);

    /** Insert @p key with its deterministic pattern value. */
    void insert(std::uint64_t key);

    /** Bulk insert. */
    void insert_many(const std::vector<std::uint64_t>& keys);

    /** Number of stored keys. */
    std::uint64_t size() const { return size_; }

    /** Bucket index for @p key. */
    std::uint64_t bucket_of(std::uint64_t key) const;

    /** Virtual address of the bucket slot for @p key. */
    VirtAddr bucket_slot(std::uint64_t key) const;

    /** Memory node owning @p key's bucket (partitioned placement). */
    NodeId node_of(std::uint64_t key) const;

    /** The two-phase find program (bucket slot, then Listing 4). */
    std::shared_ptr<const isa::Program> find_program() const;

    /**
     * In-place update program: find the key, then STORE the new value
     * (staged in the scratch_pad) over the node's value field — the
     * write path of section 4.1's footnote, exercised end to end.
     */
    std::shared_ptr<const isa::Program> update_program() const;

    /** Operation for find(key): init() hashes and stages the key. */
    offload::Operation make_find(std::uint64_t key,
                                 offload::CompletionFn done) const;

    /** Operation for update(key, new_value). */
    offload::Operation make_update(std::uint64_t key,
                                   const std::vector<std::uint8_t>& value,
                                   offload::CompletionFn done) const;

    /** Parse an update completion: true if the key was found. */
    static bool parse_update(const offload::Completion& completion);

    /** Result of a parsed find completion. */
    struct FindResult
    {
        bool found = false;
        std::uint64_t value_word = 0;  ///< first 8 B of the value
        std::vector<std::uint8_t> value;
    };

    /** Parse a find completion. */
    FindResult parse_find(const offload::Completion& completion) const;

    /** Host-side reference find (plain remote reads, no ISA). */
    std::optional<std::uint64_t> find_reference(std::uint64_t key) const;

    const HashTableConfig& config() const { return config_; }

    /** Bytes of one chain node. */
    Bytes node_bytes() const { return 16 + config_.value_bytes; }

  private:
    mem::GlobalMemory& memory_;
    mem::ClusterAllocator& alloc_;
    HashTableConfig config_;
    std::uint64_t size_ = 0;
    std::uint64_t buckets_per_partition_ = 0;
    /** Base VA of each partition's bucket sub-array. */
    std::vector<VirtAddr> partition_base_;
    mutable std::shared_ptr<const isa::Program> find_program_;
    mutable std::shared_ptr<const isa::Program> update_program_;
};

}  // namespace pulse::ds

#endif  // PULSE_DS_HASH_TABLE_H
