#include "check/fuzzer.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iterator>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "check/reference_interpreter.h"
#include "check/shadow_memory.h"
#include "common/logging.h"
#include "common/random.h"
#include "core/cluster.h"
#include "ds/bptree.h"
#include "ds/ds_common.h"
#include "ds/hash_table.h"
#include "ds/linked_list.h"
#include "ds/prox_graph.h"
#include "ds/search_tree.h"
#include "faults/nemesis.h"
#include "isa/traversal.h"
#include "serve/fleet.h"

namespace pulse::check {
namespace {

std::string
u64_json(const char* key, std::uint64_t value, bool last = false)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "\"%s\": %llu%s", key,
                  static_cast<unsigned long long>(value),
                  last ? "" : ", ");
    return buf;
}

/** Scan for `"key"` then `:` and return the raw value start, or npos. */
std::size_t
json_value_pos(const std::string& text, const std::string& key)
{
    const std::string quoted = "\"" + key + "\"";
    std::size_t pos = text.find(quoted);
    if (pos == std::string::npos) {
        return std::string::npos;
    }
    pos = text.find(':', pos + quoted.size());
    if (pos == std::string::npos) {
        return std::string::npos;
    }
    pos++;
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
        pos++;
    }
    return pos;
}

/**
 * Read @p key's value into @p out when the key is present (an absent
 * key leaves @p out as it is). False with @p error naming the key when
 * the value is not a whole number in [0, @p max].
 */
bool
json_uint(const std::string& text, const std::string& key,
          std::uint64_t max, std::uint64_t* out, std::string* error)
{
    const std::size_t pos = json_value_pos(text, key);
    if (pos == std::string::npos) {
        return true;
    }
    const char* begin = text.data() + pos;
    const char* end = text.data() + text.size();
    std::uint64_t value = 0;
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    const bool ends = ptr == end ||
                      std::string_view(",} \t\r\n").find(*ptr) !=
                          std::string_view::npos;
    if (ptr == begin || ec != std::errc() || !ends || value > max) {
        if (error != nullptr) {
            *error = "\"" + key + "\": not a whole number in [0, " +
                     std::to_string(max) + "]";
        }
        return false;
    }
    *out = value;
    return true;
}

bool
json_string(const std::string& text, const std::string& key,
            std::string* out)
{
    const std::size_t pos = json_value_pos(text, key);
    if (pos == std::string::npos || pos >= text.size() ||
        text[pos] != '"') {
        return false;
    }
    const std::size_t end = text.find('"', pos + 1);
    if (end == std::string::npos) {
        return false;
    }
    *out = text.substr(pos + 1, end - pos - 1);
    return true;
}

bool
known_name(const char* const* names, std::size_t count,
           const std::string& value)
{
    for (std::size_t i = 0; i < count; i++) {
        if (value == names[i]) {
            return true;
        }
    }
    return false;
}

/**
 * Read @p key's string value into @p out when the key is present (an
 * absent key leaves @p out as it is). False with @p error naming the
 * key when the value is not a quoted string among @p names.
 */
bool
json_name(const std::string& text, const std::string& key,
          const char* const* names, std::size_t count, std::string* out,
          std::string* error)
{
    if (json_value_pos(text, key) == std::string::npos) {
        return true;
    }
    std::string value;
    if (json_string(text, key, &value) &&
        known_name(names, count, value)) {
        *out = value;
        return true;
    }
    if (error != nullptr) {
        *error = "\"" + key + "\": expected one of";
        for (std::size_t i = 0; i < count; i++) {
            *error += std::string(i == 0 ? " " : ", ") + names[i];
        }
    }
    return false;
}

/** The lock-free fetch-and-add retry loop (supp. section B). */
isa::Program
cas_increment_program()
{
    isa::ProgramBuilder b;
    b.load(8)
        .add(isa::sp(0), isa::sp(0), isa::imm(1))
        .add(isa::sp(8), isa::dat(0), isa::imm(1))
        .cas(0, isa::dat(0), isa::sp(8))
        .jump_eq("done")
        .next_iter()
        .label("done")
        .ret();
    return b.build();
}

/** First few registry diagnostics, joined for the failure message. */
std::string
diagnostics_message(const InvariantRegistry& registry)
{
    std::string message;
    std::size_t shown = 0;
    for (const Violation& violation : registry.diagnostics()) {
        if (shown == 3) {
            message += " ...";
            break;
        }
        if (shown > 0) {
            message += " | ";
        }
        message += violation.to_string();
        shown++;
    }
    return message;
}

/**
 * The cluster every case runs on. The environment's plane knobs apply
 * first, so a whole sweep can race a plane against the fuzzed
 * traversals under the oracle and invariants (PULSE_PLACEMENT=elastic
 * in the CI migration-soak job, PULSE_REPLICATION=k2 in chaos-soak);
 * the case's own settings, planes included, win over them. Returns
 * false with @p error set on a malformed knob or an unknown fault
 * profile.
 */
bool
case_config(const FuzzCase& c, core::ClusterConfig* config,
            std::string* error)
{
    if (!config->apply_env_knobs(error)) {
        return false;
    }
    config->num_mem_nodes = c.nodes == 0 ? 1 : c.nodes;
    config->node_capacity = 32 * kMiB;
    config->seed = c.seed;
    config->check.oracle = true;
    config->check.invariants = true;
    config->check.fail_fast = false;
    config->check.max_diagnostics = 16;
    bool fault_known = false;
    config->faults = fuzz_fault_config(c.fault, c.seed, &fault_known);
    if (!fault_known) {
        *error = "unknown fault profile: " + c.fault;
        return false;
    }
    if (!c.placement.empty()) {
        config->placement.mode =
            c.placement == "elastic"  ? placement::PlacementMode::kElastic
            : c.placement == "static" ? placement::PlacementMode::kStatic
                                      : placement::PlacementMode::kOff;
    }
    if (!c.replication.empty()) {
        config->replication.replication_factor =
            c.replication == "k3" ? 3 : c.replication == "k2" ? 2 : 1;
    }
    if (c.slab_bytes != 0) {
        config->placement.slab_bytes = c.slab_bytes;
    }
    if (config->faults.enabled()) {
        // Fast loss recovery so even lossy cases drain quickly.
        config->offload.adaptive_rto = true;
        config->offload.retransmit_timeout = micros(2000.0);
    }
    if (config->placement.enabled()) {
        // A short epoch makes migrations plausible within a case.
        config->placement.epoch = micros(5.0);
        config->placement.trigger_imbalance = 1.1;
    }
    return true;
}

/**
 * Drive the case's c.ops operations through pulse closed-loop, c.
 * concurrency outstanding, until the queue drains; then judge the
 * quiesced cluster: quiesce checks, the oracle's tally, the seam
 * counters, and whether every operation completed. @p make_op is
 * called in issue order with each operation's index. A lost operation
 * shows up as a short count, not as an abort.
 */
void
drive_and_judge(core::Cluster& cluster, const FuzzCase& c,
                const workloads::OpFactory& make_op, FuzzResult* result)
{
    serve::FleetConfig fleet_config;
    fleet_config.tenants.push_back(serve::closed_loop(
        0, c.ops, std::max<std::uint32_t>(c.concurrency, 1)));
    const workloads::SubmitFn submit =
        cluster.submitter(core::SystemKind::kPulse);
    serve::Fleet fleet(
        cluster.queue(), fleet_config,
        [&make_op](serve::TenantId, std::uint64_t index) {
            return make_op(index);
        },
        [&submit](serve::TenantId, offload::Operation&& op) {
            submit(std::move(op));
        });
    fleet.start(0);
    cluster.queue().run();
    const serve::TenantFleetStats& stats = fleet.stats().at(0);
    const std::uint64_t completed = stats.finished();

    result->violations = cluster.verify_quiesce();
    const OracleStats& oracle = cluster.checker()->oracle()->stats();
    result->oracle_exact = oracle.exact;
    result->oracle_weak = oracle.weak;
    result->retransmits =
        cluster.offload_engine().stats().retransmits.value();
    result->retries = stats.retries();
    if (const placement::PlacementPlane* plane =
            cluster.placement_plane()) {
        const placement::MigrationStats& migration =
            plane->migration_stats();
        result->migrations_started = migration.started.value();
        result->migrations_completed = migration.completed.value();
        result->migrations_aborted = migration.aborted.value();
    }
    if (const replication::ReplicationPlane* plane =
            cluster.replication_plane()) {
        result->failovers = plane->failovers().size();
    }
    result->ok = result->violations == 0 && completed == c.ops;
    if (result->violations != 0) {
        result->message =
            diagnostics_message(cluster.checker()->registry());
    } else if (completed != c.ops) {
        result->message = "only " + std::to_string(completed) + "/" +
                          std::to_string(c.ops) + " operations completed";
    }
}

FuzzResult
run_workload_case(const FuzzCase& c)
{
    FuzzResult result;
    core::ClusterConfig config;
    if (!case_config(c, &config, &result.message)) {
        result.ok = false;
        return result;
    }
    // Per-case opt-in: tenants >= 2 runs the whole mix through the
    // serving plane — WDRR admission keyed by tenant, quota-capped
    // batch tenants (throttle + typed shed paths live), tight queue
    // caps — so QoS decisions race the fuzzed traversals under the
    // oracle and invariants.
    const std::uint32_t tenants = c.tenants >= 2 ? c.tenants : 0;
    if (tenants != 0) {
        config.serve.on = true;
        config.accel.sched_policy = accel::SchedPolicy::kWeightedDrr;
        config.serve.latency_queue_cap = 64;
        config.serve.throttle_park_cap = 8;
        config.serve.tenants.push_back(
            {.id = 0,
             .slo = serve::SloClass::kLatencySensitive,
             .weight = 4});
        for (std::uint32_t t = 1; t < tenants; t++) {
            config.serve.tenants.push_back(
                {.id = t,
                 .slo = serve::SloClass::kBatch,
                 .weight = 1,
                 .quota_ops_per_s = 2e5,
                 .quota_burst = 8.0});
        }
    }

    core::Cluster cluster(config);
    Rng rng(c.seed * 0x9E3779B97F4A7C15ull + 0xD5);

    // Shared key universe (strictly increasing, as the trees require).
    const std::uint64_t num_keys = 64 + rng.next_below(128);
    std::vector<std::uint64_t> keys;
    keys.reserve(num_keys);
    std::uint64_t key = 10;
    for (std::uint64_t i = 0; i < num_keys; i++) {
        keys.push_back(key);
        key += 1 + rng.next_below(7);
    }
    const std::uint64_t key_lo = keys.front();
    const std::uint64_t key_hi = keys.back();

    // Build the requested structure.
    std::unique_ptr<ds::HashTable> hash;
    std::unique_ptr<ds::LinkedList> list;
    std::unique_ptr<ds::BPTree> bptree;
    std::unique_ptr<ds::SearchTree> tree;
    std::unique_ptr<ds::ProxGraph> prox;
    bool bptree_inline = true;
    if (c.ds == "hash") {
        ds::HashTableConfig ht;
        ht.num_buckets = 32;  // long chains => long traversals
        ht.partitions = config.num_mem_nodes;
        hash = std::make_unique<ds::HashTable>(cluster.memory(),
                                               cluster.allocator(), ht);
        hash->insert_many(keys);
    } else if (c.ds == "list") {
        list = std::make_unique<ds::LinkedList>(cluster.memory(),
                                                cluster.allocator());
        list->build(keys);
    } else if (c.ds == "bptree") {
        ds::BPTreeConfig bt;
        bptree_inline = (c.seed & 1) != 0;
        bt.inline_values = bptree_inline;
        bt.partitions = config.num_mem_nodes;
        bptree = std::make_unique<ds::BPTree>(cluster.memory(),
                                              cluster.allocator(), bt);
        std::vector<ds::BPTreeEntry> entries;
        entries.reserve(keys.size());
        for (const std::uint64_t k : keys) {
            entries.push_back({k, ds::value_pattern_word(k)});
        }
        bptree->build(entries);
    } else if (c.ds == "bst" || c.ds == "balanced") {
        // "balanced" picks a Boost layout (AVL, splay, scapegoat) from
        // the seed; they follow kStl in TreeLayout.
        const auto layout =
            c.ds == "bst" ? ds::TreeLayout::kStl
                          : static_cast<ds::TreeLayout>(1 + c.seed % 3);
        tree = std::make_unique<ds::SearchTree>(cluster.memory(),
                                                cluster.allocator(),
                                                layout);
        tree->build(keys);
    } else if (c.ds == "prox") {
        prox = std::make_unique<ds::ProxGraph>(cluster.memory(),
                                               cluster.allocator());
        prox->build(keys);
    } else {
        result.ok = false;
        result.message = "unknown data structure: " + c.ds;
        return result;
    }

    // Shared CAS counter so every workload mixes in atomic writes.
    const VirtAddr counter = cluster.allocator().alloc_on(0, 8, 256);
    cluster.memory().write_as<std::uint64_t>(counter, 0);
    auto cas_program =
        std::make_shared<const isa::Program>(cas_increment_program());
    std::uint64_t cas_submitted = 0;

    auto make_op = [&]() -> offload::Operation {
        const std::uint64_t pick = keys[rng.next_below(keys.size())];
        const std::uint64_t roll = rng.next_below(100);
        const bool cas_op = roll >= 85;
        if (cas_op) {
            cas_submitted++;
            offload::Operation op;
            op.program = cas_program;
            op.start_ptr = counter;
            op.init_scratch.assign(16, 0);
            return op;
        }
        if (hash) {
            if (roll < 45) {
                return hash->make_find(pick, nullptr);
            }
            if (roll < 55) {
                return hash->make_find(key_hi + 1 + roll, nullptr);
            }
            std::vector<std::uint8_t> value(
                hash->config().value_bytes);
            ds::fill_value_pattern(pick ^ 0xF00DF00Dull, value.data(),
                                   value.size());
            return hash->make_update(pick, value, nullptr);
        }
        if (list) {
            if (roll < 40) {
                return list->make_find(pick, nullptr);
            }
            if (roll < 50) {
                return list->make_find(key_hi + 1 + roll, nullptr);
            }
            return list->make_walk(1 + rng.next_below(list->size()),
                                   nullptr);
        }
        if (bptree) {
            if (roll < 40) {
                return bptree->make_find(pick, nullptr);
            }
            if (roll < 50) {
                return bptree->make_find(key_hi + 1 + roll, nullptr);
            }
            if (bptree_inline) {
                const std::uint64_t lo =
                    key_lo + rng.next_below(key_hi - key_lo);
                return bptree->make_aggregate(
                    static_cast<ds::AggKind>(rng.next_below(4)), lo,
                    lo + 1 + rng.next_below(64), nullptr);
            }
            return bptree->make_scan(pick, 1 + rng.next_below(12),
                                     nullptr);
        }
        if (tree) {
            return tree->make_lower_bound(
                key_lo + rng.next_below(key_hi + 8 - key_lo), nullptr);
        }
        return prox->make_search(
            key_lo + rng.next_below(key_hi + 8 - key_lo), nullptr);
    };
    drive_and_judge(
        cluster, c,
        [&](std::uint64_t index) {
            offload::Operation op = make_op();
            if (tenants != 0) {
                op.tenant = static_cast<std::uint32_t>(index % tenants);
            }
            return op;
        },
        &result);
    (void)cas_submitted;
    return result;
}

/** Bounds helper shared by the production hooks (mirrors valid_span). */
bool
span_valid(const mem::GlobalMemory& memory, VirtAddr va, Bytes len)
{
    const auto node = memory.address_map().node_for(va);
    if (!node.has_value()) {
        return false;
    }
    const mem::NodeRegion& region = memory.address_map().region(*node);
    return va - region.base + len <= region.size;
}

FuzzResult
run_program_case(const FuzzCase& c)
{
    FuzzResult result;
    Rng rng(c.seed * 0x2545F4914F6CDD1Dull + 0x9D);

    // Two identically-built single-node memories: the production
    // interpreter mutates A, the reference's shadow overlays B.
    mem::GlobalMemory mem_a(1, 1 * kMiB);
    mem::GlobalMemory mem_b(1, 1 * kMiB);
    const mem::NodeRegion& region = mem_a.address_map().region(0);
    const VirtAddr base = region.base;
    auto write_both = [&](VirtAddr va, std::uint64_t value) {
        mem_a.write_as<std::uint64_t>(va, value);
        mem_b.write_as<std::uint64_t>(va, value);
    };

    // A small pointer chain: 64 B nodes, next pointer in word 0. The
    // tail's next is drawn from {null, invalid, cycle-to-head} so the
    // termination paths (kDone via null, kMemFault, kMaxIter) all get
    // exercised across seeds.
    const std::uint64_t chain = 4 + rng.next_below(28);
    for (std::uint64_t i = 0; i < chain; i++) {
        const VirtAddr node = base + i * 64;
        VirtAddr next = base + (i + 1) * 64;
        if (i + 1 == chain) {
            switch (rng.next_below(3)) {
              case 0: next = kNullAddr; break;
              case 1: next = base + region.size + 64; break;  // invalid
              default: next = base; break;                    // cycle
            }
        }
        write_both(node, next);
        for (std::uint32_t w = 1; w < 8; w++) {
            write_both(node + w * 8, rng.next_u64());
        }
    }

    const isa::Program program = random_program(c.seed);
    if (!program.analysis().valid) {
        result.ok = false;
        result.message = "generated program failed verify: " +
                         program.analysis().error;
        return result;
    }

    std::vector<std::uint8_t> init_scratch(32);
    for (std::size_t i = 0; i < init_scratch.size(); i++) {
        init_scratch[i] = static_cast<std::uint8_t>(rng.next_below(256));
    }
    const VirtAddr start = rng.next_bool(0.9)
                               ? base
                               : base + region.size + 128;  // invalid

    // Production run: isa::run_traversal over memory A.
    isa::MemoryHooks hooks;
    hooks.load = [&](VirtAddr va, std::uint32_t len, std::uint8_t* out) {
        if (!span_valid(mem_a, va, len)) {
            return false;
        }
        mem_a.read(va, out, len);
        return true;
    };
    hooks.store = [&](VirtAddr va, std::uint32_t len,
                      const std::uint8_t* in) {
        if (!span_valid(mem_a, va, len)) {
            return false;
        }
        mem_a.write(va, in, len);
        return true;
    };
    hooks.cas = [&](VirtAddr va, std::uint64_t expected,
                    std::uint64_t desired) {
        if (!span_valid(mem_a, va, 8)) {
            return false;
        }
        if (mem_a.read_as<std::uint64_t>(va) != expected) {
            return false;
        }
        mem_a.write_as<std::uint64_t>(va, desired);
        return true;
    };
    const isa::TraversalOutcome actual =
        isa::run_traversal(program, start, init_scratch, hooks);

    // Reference run over the shadow of memory B. A CAS at an invalid
    // address behaves as a failed swap on the hooks path above, so
    // cas_fault_is_memfault is off here.
    ShadowMemory shadow(mem_b);
    ReferenceOptions options;
    options.cas_fault_is_memfault = false;
    const ReferenceOutcome expected = reference_traversal(
        program, start, init_scratch, shadow, 0, options);

    auto fail = [&](const std::string& what) {
        result.ok = false;
        result.violations++;
        if (!result.message.empty()) {
            result.message += " | ";
        }
        result.message += what;
    };
    if (actual.status != expected.status) {
        fail("status " + std::to_string(static_cast<int>(actual.status)) +
             " != reference " +
             std::to_string(static_cast<int>(expected.status)));
    }
    if (actual.fault != expected.fault) {
        fail("fault " + std::to_string(static_cast<int>(actual.fault)) +
             " != reference " +
             std::to_string(static_cast<int>(expected.fault)));
    }
    if (actual.iterations != expected.iterations) {
        fail("iterations " + std::to_string(actual.iterations) +
             " != reference " + std::to_string(expected.iterations));
    }
    if (actual.instructions != expected.instructions) {
        fail("instructions " + std::to_string(actual.instructions) +
             " != reference " + std::to_string(expected.instructions));
    }
    if (actual.final_ptr != expected.final_ptr) {
        fail("final_ptr mismatch");
    }
    if (actual.scratch != expected.scratch) {
        fail("scratch bytes mismatch");
    }

    // Byte-level memory diff: materialize the shadow into B, then
    // compare the window the program could have touched (chain plus
    // one node's 256 B store vicinity).
    shadow.flush(mem_b);
    const Bytes extent =
        std::min<Bytes>(chain * 64 + 320, region.size);
    for (Bytes off = 0; off < extent; off += 8) {
        const auto a = mem_a.read_as<std::uint64_t>(base + off);
        const auto b = mem_b.read_as<std::uint64_t>(base + off);
        if (a != b) {
            char buf[96];
            std::snprintf(buf, sizeof(buf),
                          "memory diff at +%llu: %llx != ref %llx",
                          static_cast<unsigned long long>(off),
                          static_cast<unsigned long long>(a),
                          static_cast<unsigned long long>(b));
            fail(buf);
            break;
        }
    }
    result.oracle_exact = result.ok ? 1 : 0;
    return result;
}

FuzzResult
run_fork_case(const FuzzCase& c)
{
    FuzzResult result;
    core::ClusterConfig config;
    if (!case_config(c, &config, &result.message)) {
        result.ok = false;
        return result;
    }

    core::Cluster cluster(config);
    Rng rng(c.seed * 0x9E3779B97F4A7C15ull + 0xF0);

    const std::uint32_t fanout =
        std::clamp<std::uint32_t>(c.forks, 1, 4);
    const std::uint32_t depth =
        std::clamp<std::uint32_t>(c.fork_depth, 1, 3);

    // Random pointer tree: 64 B nodes, child pointers in words
    // 0..fanout-1 (some branches pruned to null, exercising the
    // conditional-fork idiom), value in word 7.
    std::function<VirtAddr(std::uint32_t)> grow =
        [&](std::uint32_t level) -> VirtAddr {
        const VirtAddr node = cluster.allocator().alloc(64, 64);
        PULSE_ASSERT(node != kNullAddr, "out of memory for fork tree");
        std::uint8_t buffer[64] = {};
        const std::uint64_t value = rng.next_below(1ull << 20);
        std::memcpy(buffer + 56, &value, 8);
        if (level < depth) {
            for (std::uint32_t f = 0; f < fanout; f++) {
                if (!rng.next_bool(0.85)) {
                    continue;  // pruned branch: null pointer
                }
                const VirtAddr child = grow(level + 1);
                std::memcpy(buffer + f * 8, &child, 8);
            }
        }
        cluster.memory().write(node, buffer, 64);
        return node;
    };
    const VirtAddr root = grow(0);

    auto program = std::make_shared<const isa::Program>(
        random_fork_program(c.seed, fanout, depth));
    if (!program->analysis().valid) {
        result.ok = false;
        result.message = "generated fork program failed verify: " +
                         program->analysis().error;
        return result;
    }

    drive_and_judge(
        cluster, c,
        [&](std::uint64_t) {
            offload::Operation op;
            op.program = program;
            op.start_ptr = root;
            op.init_scratch.assign(32, 0);
            const std::uint64_t hops = depth;
            std::memcpy(op.init_scratch.data(), &hops, 8);
            return op;
        },
        &result);
    return result;
}

}  // namespace

std::string
FuzzCase::to_json() const
{
    std::string out = "{";
    out += u64_json("seed", seed);
    out += "\"mode\": \"" + mode + "\", ";
    out += "\"ds\": \"" + ds + "\", ";
    out += "\"fault\": \"" + fault + "\", ";
    out += u64_json("ops", ops);
    out += u64_json("concurrency", concurrency);
    out += u64_json("nodes", nodes);
    out += u64_json("forks", forks);
    out += u64_json("fork_depth", fork_depth);
    out += u64_json("tenants", tenants, /*last=*/true);
    if (!placement.empty()) {
        out += ", \"placement\": \"" + placement + "\"";
    }
    if (!replication.empty()) {
        out += ", \"replication\": \"" + replication + "\"";
    }
    if (slab_bytes != 0) {
        out += ", " + u64_json("slab_bytes", slab_bytes, /*last=*/true);
    }
    out += "}";
    return out;
}

bool
FuzzCase::from_json(const std::string& text, FuzzCase* out,
                    std::string* error)
{
    FuzzCase c;
    if (json_value_pos(text, "seed") == std::string::npos) {
        if (error != nullptr) {
            *error = "missing \"seed\"";
        }
        return false;
    }
    if (!json_uint(text, "seed", UINT64_MAX, &c.seed, error)) {
        return false;
    }
    if (!json_string(text, "mode", &c.mode)) {
        if (error != nullptr) {
            *error = "missing \"mode\"";
        }
        return false;
    }
    if (c.mode != "workload" && c.mode != "program" &&
        c.mode != "fork") {
        if (error != nullptr) {
            *error = "unknown mode: " + c.mode;
        }
        return false;
    }
    if (!json_name(text, "ds", kFuzzDataStructures,
                   kNumFuzzDataStructures, &c.ds, error) ||
        !json_name(text, "fault", kFuzzFaultConfigs, kNumFuzzFaultConfigs,
                   &c.fault, error) ||
        !json_name(text, "placement", kFuzzPlacements,
                   std::size(kFuzzPlacements), &c.placement, error) ||
        !json_name(text, "replication", kFuzzReplications,
                   std::size(kFuzzReplications), &c.replication,
                   error)) {
        return false;
    }
    const std::pair<const char*, std::uint32_t*> fields[] = {
        {"ops", &c.ops},
        {"concurrency", &c.concurrency},
        {"nodes", &c.nodes},
        {"forks", &c.forks},
        {"fork_depth", &c.fork_depth},
        {"tenants", &c.tenants},
    };
    for (const auto& [key, field] : fields) {
        std::uint64_t value = *field;
        if (!json_uint(text, key, UINT32_MAX, &value, error)) {
            return false;
        }
        *field = static_cast<std::uint32_t>(value);
    }
    std::uint64_t slab = 0;
    if (!json_uint(text, "slab_bytes", kFuzzMaxSlabBytes, &slab, error)) {
        return false;
    }
    if (slab != 0 &&
        (slab < kFuzzMinSlabBytes || (slab & (slab - 1)) != 0)) {
        if (error != nullptr) {
            *error = "\"slab_bytes\": not a power of two in [" +
                     std::to_string(kFuzzMinSlabBytes) + ", " +
                     std::to_string(kFuzzMaxSlabBytes) + "]";
        }
        return false;
    }
    c.slab_bytes = static_cast<std::uint32_t>(slab);
    *out = c;
    return true;
}

faults::FaultConfig
fuzz_fault_config(const std::string& name, std::uint64_t seed,
                  bool* known)
{
    faults::FaultConfig config;
    config.seed = seed ^ 0xFA17C0DEull;
    bool recognized = true;
    if (name == "healthy") {
        // inactive
    } else if (name == "loss") {
        config.links.loss = 0.02;
    } else if (name == "dup") {
        config.links.duplicate = 0.05;
    } else if (name == "burst") {
        config.links.bursty = true;
        config.links.burst_p_enter = 0.02;
        config.links.burst_p_exit = 0.25;
        config.links.burst_loss_bad = 0.5;
    } else if (name == "chaos") {
        config.links.loss = 0.01;
        config.links.duplicate = 0.02;
        config.links.corrupt = 0.005;
        config.links.reorder = 0.2;
        config.links.reorder_jitter = micros(5.0);
    } else if (name == "nemesis") {
        // Scripted node crash/recover windows: stalls the detector
        // must ride out and blackouts it must declare. Targets up to
        // four nodes; windows for nodes a smaller case lacks are
        // harmless no-ops.
        faults::NemesisConfig nemesis;
        nemesis.seed = seed ^ 0xFA11C0DEull;
        nemesis.num_nodes = 4;
        nemesis.crashes = 2;
        config.timeline = faults::nemesis_timeline(nemesis);
    } else {
        recognized = false;
    }
    if (known != nullptr) {
        *known = recognized;
    }
    return config;
}

FuzzCase
random_case(std::uint64_t seed)
{
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x51);
    FuzzCase c;
    c.seed = seed;
    c.mode = rng.next_bool(0.25) ? "program" : "workload";
    c.ds = kFuzzDataStructures[rng.next_below(kNumFuzzDataStructures)];
    c.fault = kFuzzFaultConfigs[rng.next_below(kNumFuzzFaultConfigs)];
    c.ops = static_cast<std::uint32_t>(16 + rng.next_below(112));
    c.concurrency = static_cast<std::uint32_t>(1 + rng.next_below(8));
    c.nodes = static_cast<std::uint32_t>(1 + rng.next_below(4));
    // Fork-mode draws come last so pre-fork seeds keep their exact
    // shape: a seed only becomes a fork case via this trailing roll.
    if (rng.next_bool(0.15)) {
        c.mode = "fork";
        c.forks = static_cast<std::uint32_t>(1 + rng.next_below(4));
        c.fork_depth = static_cast<std::uint32_t>(1 + rng.next_below(3));
        c.ops = static_cast<std::uint32_t>(8 + rng.next_below(24));
    }
    // Serving-plane draw comes after the fork roll (same trailing-roll
    // discipline): pre-serving seeds keep their exact shape, and a
    // workload seed only gains tenants via this extra draw.
    if (c.mode == "workload" && rng.next_bool(0.2)) {
        c.tenants = static_cast<std::uint32_t>(2 + rng.next_below(3));
    }
    // Slab draw last, for cluster cases only. A case's data set fits
    // in one or two default 64 KiB slabs, so without a smaller slab a
    // sweep under PULSE_PLACEMENT=elastic never migrates. Only the
    // placement plane reads it.
    if (c.mode != "program" && rng.next_bool(0.5)) {
        c.slab_bytes = kFuzzMinSlabBytes;
    }
    return c;
}

isa::Program
random_program(std::uint64_t seed)
{
    Rng rng(seed * 0x2545F4914F6CDD1Dull + 0x1CE);
    const std::uint32_t load_words =
        1 + static_cast<std::uint32_t>(rng.next_below(8));
    const std::uint32_t load_bytes = load_words * 8;
    constexpr std::uint32_t kScratch = 64;

    auto rand_src = [&]() -> isa::Operand {
        switch (rng.next_below(4)) {
          case 0:
            return isa::sp(
                8 * static_cast<std::uint32_t>(rng.next_below(8)));
          case 1:
            return isa::dat(8 * static_cast<std::uint32_t>(
                                    rng.next_below(load_words)));
          case 2: return isa::imm(rng.next_below(1 << 12));
          default: return isa::cur();
        }
    };
    auto rand_dst = [&]() -> isa::Operand {
        if (rng.next_bool(0.7)) {
            return isa::sp(
                8 * static_cast<std::uint32_t>(rng.next_below(8)));
        }
        return isa::dat(
            8 * static_cast<std::uint32_t>(rng.next_below(load_words)));
    };

    isa::ProgramBuilder b;
    b.scratch_bytes(kScratch)
        .max_iters(1 + static_cast<std::uint32_t>(rng.next_below(6)))
        .load(load_bytes);

    const std::uint64_t body = 2 + rng.next_below(6);
    for (std::uint64_t i = 0; i < body; i++) {
        switch (rng.next_below(8)) {
          case 0: b.add(rand_dst(), rand_src(), rand_src()); break;
          case 1: b.sub(rand_dst(), rand_src(), rand_src()); break;
          case 2: b.mul(rand_dst(), rand_src(), rand_src()); break;
          case 3:
            // Mostly non-zero divisors; sometimes a register, so the
            // kDivideByZero path gets fuzzed too.
            b.div(rand_dst(), rand_src(),
                  rng.next_bool(0.8)
                      ? isa::imm(1 + rng.next_below(9))
                      : rand_src());
            break;
          case 4: b.band(rand_dst(), rand_src(), rand_src()); break;
          case 5: b.bor(rand_dst(), rand_src(), rand_src()); break;
          case 6: b.bnot(rand_dst(), rand_src()); break;
          default:
            if (rng.next_bool(0.25) && load_bytes >= 16) {
                // Register-vector move between the two vectors.
                const std::uint16_t width = 16;
                b.move(isa::sp(8 * static_cast<std::uint32_t>(
                                       rng.next_below(
                                           (kScratch - width) / 8 + 1)),
                               width),
                       isa::dat(0, width));
            } else {
                b.move(rand_dst(), rand_src());
            }
            break;
        }
    }

    if (rng.next_bool(0.4)) {
        b.store(8 * static_cast<std::uint32_t>(rng.next_below(16)),
                8 * static_cast<std::uint32_t>(
                        rng.next_below(load_words)),
                8);
    }
    if (rng.next_bool(0.3)) {
        b.cas(8 * static_cast<std::uint32_t>(rng.next_below(8)),
              rand_src(), rand_src());
    }

    const bool jumped = rng.next_bool(0.6);
    if (jumped) {
        static constexpr isa::Cond kConds[] = {
            isa::Cond::kEq, isa::Cond::kNeq, isa::Cond::kLt,
            isa::Cond::kGt, isa::Cond::kLe,  isa::Cond::kGe,
        };
        b.compare(rand_src(), rand_src());
        b.jump(kConds[rng.next_below(6)], "done");
    }

    switch (rng.next_below(3)) {
      case 0: b.move(isa::cur(), isa::dat(0)); break;  // chase next
      case 1: b.add(isa::cur(), isa::cur(), isa::imm(64)); break;
      default: break;  // fixed point: spins until MAX_ITER
    }
    b.next_iter();
    b.label("done");
    if (jumped && rng.next_bool(0.5)) {
        b.add(rand_dst(), rand_src(), rand_src());
    }
    b.ret();
    return b.build();
}

isa::Program
random_fork_program(std::uint64_t seed, std::uint32_t fanout,
                    std::uint32_t depth)
{
    Rng rng(seed * 0x2545F4914F6CDD1Dull + 0xF02C);
    const auto op = static_cast<isa::ReduceOp>(rng.next_below(6));

    // Scratch: hops-remaining arg word @0 (the spawn-argument window),
    // reduce lane @8, noise cells @16/@24. The lane starts zeroed on
    // every path — the root's init scratch and each child's fresh
    // scratch — so "lane += value" leaves exactly this node's value
    // for the fold, whatever the reduce operator.
    isa::ProgramBuilder b;
    b.load(64)
        .reduce(op, 8, 1)
        .add(isa::sp(8), isa::sp(8), isa::dat(56));
    // ALU noise on cells outside the arg and lane windows keeps the
    // generated bodies diverse without perturbing the fold.
    const std::uint64_t noise = rng.next_below(4);
    for (std::uint64_t i = 0; i < noise; i++) {
        const isa::Operand dst = isa::sp(
            16 + 8 * static_cast<std::uint32_t>(rng.next_below(2)));
        const isa::Operand src =
            rng.next_bool(0.5)
                ? isa::dat(8 * static_cast<std::uint32_t>(
                                   rng.next_below(8)))
                : isa::imm(rng.next_below(1 << 12));
        switch (rng.next_below(3)) {
          case 0: b.add(dst, dst, src); break;
          case 1: b.sub(dst, dst, src); break;
          default: b.band(dst, dst, src); break;
        }
    }
    b.compare(isa::sp(0), isa::imm(0))
        .jump_eq("leaf")
        .sub(isa::sp(0), isa::sp(0), isa::imm(1));
    for (std::uint32_t f = 0; f < fanout; f++) {
        // Pruned branches leave a null pointer here: the SPAWN skips.
        b.spawn(isa::dat(f * 8), 0, 8);
    }
    b.label("leaf").join();
    b.scratch_bytes(32);
    b.max_spawn_depth(depth);
    return b.build();
}

FuzzResult
run_case(const FuzzCase& c)
{
    if (c.mode == "program") {
        return run_program_case(c);
    }
    if (c.mode == "workload") {
        return run_workload_case(c);
    }
    if (c.mode == "fork") {
        return run_fork_case(c);
    }
    FuzzResult result;
    result.ok = false;
    result.message = "unknown mode: " + c.mode;
    return result;
}

FuzzCase
minimize_case(const FuzzCase& c)
{
    FuzzCase best = c;
    auto still_fails = [](const FuzzCase& candidate) {
        return !run_case(candidate).ok;
    };
    FuzzCase trial = best;
    while (trial.ops > 1) {
        trial.ops /= 2;
        if (!still_fails(trial)) {
            break;
        }
        best = trial;
    }
    trial = best;
    if (trial.concurrency > 1) {
        trial.concurrency = 1;
        if (still_fails(trial)) {
            best = trial;
        }
    }
    trial = best;
    if (trial.nodes > 1) {
        trial.nodes = 1;
        if (still_fails(trial)) {
            best = trial;
        }
    }
    trial = best;
    if (trial.fault != "healthy") {
        trial.fault = "healthy";
        if (still_fails(trial)) {
            best = trial;
        }
    }
    return best;
}

}  // namespace pulse::check
