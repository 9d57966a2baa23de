#include "rig.h"

#include <time.h>

#include "common/logging.h"
#include "ds/ds_common.h"
#include "ds/hash_table.h"

namespace perfbench {

using namespace pulse;

namespace {

// Sized on a 4-core x86 host so that one untraced run's fixed phases
// take a few host seconds; see README.md for the measured figures.
const WorkloadSpec kSpecs[] = {
    {"upc", WorkloadKind::kUpc, 4096, 4000, 4096, 40960, 250, 1024},
    {"tc", WorkloadKind::kTc, 2048, 1500, 2048, 10240, 125, 512},
    {"tsv", WorkloadKind::kTsv, 2048, 1500, 2048, 20480, 125, 512},
    {"upc-planes", WorkloadKind::kUpcPlanes, 4096, 4000, 4096, 40960, 250,
     1024},
    // Not in BENCHMARK.json: it reproduces a defect of elastic placement
    // (README.md, "Known defect").
    {"upc-elastic", WorkloadKind::kUpcElastic, 4096, 4000, 4096, 40960,
     250, 1024},
};

/** Share of upc-planes operations that are in-place updates. */
constexpr double kUpdateShare = 0.2;

/** TSV aggregation window: 15 s resolution. */
constexpr double kTsvWindowSeconds = 15.0;

bool
is_upc(WorkloadKind kind)
{
    return kind == WorkloadKind::kUpc || kind == WorkloadKind::kUpcPlanes ||
           kind == WorkloadKind::kUpcElastic;
}

/** Independent sub-seed @p stream of the run seed. */
std::uint64_t
sub_seed(std::uint64_t seed, std::uint64_t stream)
{
    return ds::mix64(seed * 0x9E3779B97F4A7C15ull + stream);
}

core::ClusterConfig
cluster_config(WorkloadKind kind, std::uint64_t seed, bool trace,
               std::size_t ring_capacity)
{
    core::ClusterConfig config;
    config.num_mem_nodes = kMemNodes;
    config.seed = sub_seed(seed, 1);
    // UPC is key-partitioned; the B+trees use uniform allocation
    // (Table 2 marks them not partitionable).
    config.alloc_policy = is_upc(kind) ? mem::AllocPolicy::kPartitioned
                                       : mem::AllocPolicy::kUniform;
    // Enough in-flight loads per core to cover the 120 ns access
    // latency at full channel bandwidth (as in the figure benches).
    config.accel.workspaces_per_logic = 16;
    config.trace.enabled = trace;
    config.trace.ring_capacity = ring_capacity;
    if (kind == WorkloadKind::kUpcPlanes) {
        // k=2 replication: background replica copies, heartbeats, and
        // write-synchronous mirroring of the updates.
        config.replication.replication_factor = 2;
        config.replication.seed = sub_seed(seed, 5);
    }
    if (kind == WorkloadKind::kUpcElastic) {
        // Slab migration, DUAL forwarding and re-routing.
        config.placement.mode = placement::PlacementMode::kElastic;
    }
    return config;
}

}  // namespace

const WorkloadSpec*
find_spec(const std::string& name)
{
    for (const WorkloadSpec& spec : kSpecs) {
        if (name == spec.name) {
            return &spec;
        }
    }
    return nullptr;
}

std::string
spec_names()
{
    std::string names;
    for (const WorkloadSpec& spec : kSpecs) {
        names += names.empty() ? "" : "|";
        names += spec.name;
    }
    return names;
}

double
thread_cpu_s()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::uint64_t
fnv1a(const void* data, std::size_t len, std::uint64_t h)
{
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < len; i++) {
        h = (h ^ bytes[i]) * 0x100000001b3ull;
    }
    return h;
}

Rig::Rig(const WorkloadSpec& spec, std::uint64_t seed, bool trace,
         std::size_t ring_capacity, SpanLog& spans)
    : spec_(spec), update_salt_(sub_seed(seed, 3)),
      rng_(sub_seed(seed, 2)), sample_rng_(sub_seed(seed, 4))
{
    const double t0 = thread_cpu_s();
    const std::uint32_t build = spans.begin(HostLayer::kBuild);
    cluster_ = std::make_unique<core::Cluster>(
        cluster_config(spec.kind, seed, trace, ring_capacity));
    spans.end(build);
    const double t1 = thread_cpu_s();
    const std::uint32_t load = spans.begin(HostLayer::kLoad);
    apps::AppScale scale;
    if (spec.kind == WorkloadKind::kUpcElastic) {
        // bench/ablation_migration's skew: the hot chains are contiguous,
        // migratable slabs of partition 0.
        scale.zipf_theta = 0.99;
        scale.zipf_scatter = false;
        scale.sequential_buckets = true;
    }
    switch (spec.kind) {
      case WorkloadKind::kUpc:
      case WorkloadKind::kUpcPlanes:
      case WorkloadKind::kUpcElastic:
        upc_ = std::make_unique<apps::UpcApp>(*cluster_, scale);
        ycsb_c_.emplace(scale.upc_keys, scale.zipf_theta,
                        scale.zipf_scatter);
        value_buf_.resize(upc_->table().config().value_bytes);
        updated_.assign(scale.upc_keys, false);
        break;
      case WorkloadKind::kTc:
        tc_ = std::make_unique<apps::TcApp>(*cluster_, scale,
                                            /*uniform_alloc=*/true);
        ycsb_e_.emplace(scale.tc_keys);
        break;
      case WorkloadKind::kTsv:
        tsv_ = std::make_unique<apps::TsvApp>(*cluster_, scale,
                                              kTsvWindowSeconds,
                                              /*uniform_alloc=*/true);
        tsv_queries_.emplace(tsv_->trace(), kTsvWindowSeconds);
        break;
    }
    spans.end(load);
    const double t2 = thread_cpu_s();
    build_s_ = t1 - t0;
    load_s_ = t2 - t1;
}

offload::Operation
Rig::next(OpRecord* record)
{
    return make(rng_, record);
}

offload::Operation
Rig::sample(OpRecord* record)
{
    return make(sample_rng_, record);
}

offload::Operation
Rig::make(Rng& rng, OpRecord* record)
{
    switch (spec_.kind) {
      case WorkloadKind::kUpc:
      case WorkloadKind::kUpcPlanes:
      case WorkloadKind::kUpcElastic: {
          const std::uint64_t key =
              workloads::key_of(ycsb_c_->next_index(rng));
          record->a = key;
          if (spec_.kind == WorkloadKind::kUpcPlanes &&
              rng.next_double() < kUpdateShare) {
              record->kind = OpRecord::Kind::kUpdate;
              update_value(key, value_buf_.data());
              if (&rng == &rng_) {
                  updated_[(key >> 3) - 1] = true;  // inverse of key_of
              }
              return upc_->table().make_update(key, value_buf_, nullptr);
          }
          record->kind = OpRecord::Kind::kFind;
          return upc_->table().make_find(key, nullptr);
      }
      case WorkloadKind::kTc: {
          const workloads::YcsbE::Scan scan = ycsb_e_->next(rng);
          record->kind = OpRecord::Kind::kScan;
          record->a = workloads::key_of(scan.start_index);
          record->b = scan.length;
          return tc_->tree().make_scan(record->a, record->b, nullptr);
      }
      case WorkloadKind::kTsv: {
          const workloads::TsvQueries::Query query =
              tsv_queries_->next(rng);
          record->kind = OpRecord::Kind::kAggregate;
          record->agg = query.kind;
          record->a = query.lo;
          record->b = query.hi;
          return tsv_->tree().make_aggregate(query.kind, query.lo,
                                             query.hi, nullptr);
      }
    }
    panic("unknown workload kind");
}

Outcome
Rig::parse(const OpRecord& record,
           const offload::Completion& completion) const
{
    Outcome out;
    out.op = record;
    out.done = completion.status == isa::TraversalStatus::kDone &&
               !completion.timed_out;
    switch (record.kind) {
      case OpRecord::Kind::kFind: {
          const ds::HashTable::FindResult found =
              upc_->table().parse_find(completion);
          out.found = found.found;
          out.w0 = fnv1a(found.value.data(), found.value.size());
          out.w1 = found.value_word;
          break;
      }
      case OpRecord::Kind::kUpdate:
        out.found = ds::HashTable::parse_update(completion);
        break;
      case OpRecord::Kind::kScan: {
          const ds::BPTree::ScanResult scan =
              ds::BPTree::parse_scan(completion);
          out.found = scan.complete;
          out.w0 = scan.count;
          out.w1 = scan.fold;
          out.w2 = scan.last_key;
          break;
      }
      case OpRecord::Kind::kAggregate: {
          const ds::BPTree::AggResult agg =
              ds::BPTree::parse_aggregate(completion, record.agg);
          out.found = agg.complete;
          out.w0 = agg.count;
          out.w1 = static_cast<std::uint64_t>(agg.value);
          break;
      }
    }
    return out;
}

bool
Rig::verify(const Outcome& outcome) const
{
    if (!outcome.done) {
        return false;
    }
    const OpRecord& op = outcome.op;
    switch (op.kind) {
      case OpRecord::Kind::kFind: {
          if (!outcome.found) {
              return false;
          }
          // The program's answer against the host's own chain walk, and
          // the whole value against what was written: the built value,
          // or V(key) once an update may have landed.
          const auto reference = read_value(op.a);
          if (!reference) {
              return false;
          }
          const std::uint64_t ref_hash =
              fnv1a(reference->data(), reference->size());
          const bool built = outcome.w0 == built_hash(op.a) &&
                             outcome.w1 == ds::value_pattern_word(op.a);
          if (spec_.kind != WorkloadKind::kUpcPlanes) {
              return built && ref_hash == outcome.w0;
          }
          const bool updated =
              outcome.w0 == update_hash(op.a) &&
              outcome.w1 == ds::value_pattern_word(op.a ^ update_salt_);
          const bool reference_ok = ref_hash == built_hash(op.a) ||
                                    ref_hash == update_hash(op.a);
          return reference_ok && (built || updated);
      }
      case OpRecord::Kind::kUpdate:
        return outcome.found;
      case OpRecord::Kind::kScan: {
          const ds::BPTree::ScanResult ref =
              tc_->tree().scan_reference(op.a, op.b);
          return outcome.found == ref.complete &&
                 outcome.w0 == ref.count && outcome.w1 == ref.fold &&
                 outcome.w2 == ref.last_key;
      }
      case OpRecord::Kind::kAggregate: {
          const ds::BPTree::AggResult ref =
              tsv_->tree().aggregate_reference(op.agg, op.a, op.b);
          // The MIN/MAX programs keep no entry count (as in the repo's
          // own aggregate tests, only SUM/COUNT compare counts).
          const bool counted = op.agg == ds::AggKind::kSum ||
                               op.agg == ds::AggKind::kCount;
          return outcome.found == ref.complete &&
                 (!counted || outcome.w0 == ref.count) &&
                 outcome.w1 == static_cast<std::uint64_t>(ref.value);
      }
    }
    return false;
}

std::uint64_t
Rig::verify_updates() const
{
    std::uint64_t wrong = 0;
    for (std::uint64_t i = 0; i < updated_.size(); i++) {
        if (!updated_[i]) {
            continue;
        }
        const std::uint64_t key = workloads::key_of(i);
        const auto value = read_value(key);
        if (!value ||
            fnv1a(value->data(), value->size()) != update_hash(key)) {
            wrong++;
        }
    }
    return wrong;
}

void
Rig::update_value(std::uint64_t key, std::uint8_t* out) const
{
    // V(key): one fixed value per key and seed, so concurrent updates to
    // a key agree and a read sees either the built value or V(key).
    ds::fill_value_pattern(key ^ update_salt_, out, value_buf_.size());
}

std::uint64_t
Rig::built_hash(std::uint64_t key) const
{
    std::vector<std::uint8_t> value(value_buf_.size());
    ds::fill_value_pattern(key, value.data(), value.size());
    return fnv1a(value.data(), value.size());
}

std::uint64_t
Rig::update_hash(std::uint64_t key) const
{
    std::vector<std::uint8_t> value(value_buf_.size());
    update_value(key, value.data());
    return fnv1a(value.data(), value.size());
}

std::optional<std::vector<std::uint8_t>>
Rig::read_value(std::uint64_t key) const
{
    // HashTable::find_reference's chain walk, reading the whole value
    // and refusing pointers outside mapped memory, so a corrupted chain
    // counts as a failed check instead of aborting the run.
    const ds::HashTable& table = upc_->table();
    mem::GlobalMemory& memory = cluster_->memory();
    const auto mapped = [&memory](VirtAddr va) {
        return memory.address_map().node_for(va).has_value();
    };
    VirtAddr node = memory.read_as<std::uint64_t>(table.bucket_slot(key));
    for (std::uint64_t hops = 0; node != kNullAddr; hops++) {
        if (!mapped(node) || hops > table.size()) {
            return std::nullopt;
        }
        if (memory.read_as<std::uint64_t>(node +
                                          ds::HashTable::kKeyOff) == key) {
            std::vector<std::uint8_t> value(table.config().value_bytes);
            memory.read(node + ds::HashTable::kValueOff, value.data(),
                        value.size());
            return value;
        }
        node = memory.read_as<std::uint64_t>(node +
                                             ds::HashTable::kNextOff);
    }
    return std::nullopt;
}

}  // namespace perfbench
