/**
 * @file
 * User-profile cache (the paper's UPC application) as a key-value
 * store over disaggregated memory.
 *
 * A chained hash table with 240 B profile records is key-partitioned
 * across two memory nodes. The example runs a read-mostly workload
 * (95% lookups / 5% in-place profile updates — the update path
 * exercises the ISA's STORE write-back), then replays the lookups on
 * the Cache-based far-memory baseline to show why caching alone cannot
 * help pointer chasing.
 *
 *   $ ./kv_store
 */
#include <cstdio>
#include <cstring>

#include "common/histogram.h"
#include "core/cluster.h"
#include "ds/hash_table.h"
#include "serve/fleet.h"
#include "workloads/workloads.h"

using namespace pulse;

namespace {

constexpr std::uint64_t kProfiles = 60'000;
constexpr std::uint64_t kOps = 2'000;

std::vector<std::uint8_t>
profile_bytes(std::uint64_t user, std::uint64_t version)
{
    std::vector<std::uint8_t> bytes(240, 0);
    ds::fill_value_pattern(user ^ (version * 0x9E37), bytes.data(),
                           bytes.size());
    return bytes;
}

}  // namespace

int
main()
{
    core::ClusterConfig config;
    config.num_mem_nodes = 2;
    // Scale the baseline's cache like the paper: ~2% of the data set.
    config.cache.cache_bytes = kProfiles * 256 / 50;
    core::Cluster cluster(config);

    ds::HashTableConfig table_config;
    table_config.num_buckets = kProfiles / 192;  // long chains (UPC)
    table_config.partitions = 2;
    ds::HashTable profiles(cluster.memory(), cluster.allocator(),
                           table_config);
    for (std::uint64_t user = 0; user < kProfiles; user++) {
        profiles.insert(workloads::key_of(user));
    }
    std::printf("user-profile store: %llu profiles, %llu buckets, "
                "partitioned over %u memory nodes\n",
                (unsigned long long)profiles.size(),
                (unsigned long long)table_config.num_buckets,
                table_config.partitions);

    // --- pulse: offloaded lookups + updates -------------------------
    Rng rng(2026);
    std::uint64_t found = 0;
    std::uint64_t updated = 0;
    auto result = serve::run_closed_loop(
        cluster.queue(), cluster.submitter(core::SystemKind::kPulse),
        [&](std::uint64_t) {
            const std::uint64_t user = rng.next_below(kProfiles);
            const std::uint64_t key = workloads::key_of(user);
            if (rng.next_bool(0.05)) {
                auto op = profiles.make_update(
                    key, profile_bytes(user, 2), nullptr);
                op.done = nullptr;
                updated++;
                return op;
            }
            auto op = profiles.make_find(key, nullptr);
            found++;
            return op;
        },
        serve::closed_loop(100, kOps, 8));

    std::printf("\npulse: %llu ops (%llu lookups, %llu updates)\n",
                (unsigned long long)result.finished(),
                (unsigned long long)found,
                (unsigned long long)updated);
    std::printf("  mean latency  : %s\n",
                format_time(result.latency.mean()).c_str());
    std::printf("  p99 latency   : %s\n",
                format_time(result.latency.percentile(0.99)).c_str());
    std::printf("  throughput    : %.1f K ops/s\n",
                result.throughput() / 1e3);
    std::printf("  avg chain hops: %.1f\n",
                static_cast<double>(result.iterations) /
                    static_cast<double>(result.finished()));

    // Verify one updated profile read back through the accelerator.
    {
        const std::uint64_t user = 7;
        auto update = profiles.make_update(
            workloads::key_of(user), profile_bytes(user, 3), nullptr);
        bool ok = false;
        update.done = [&](offload::Completion&& completion) {
            ok = ds::HashTable::parse_update(completion);
        };
        cluster.submitter(core::SystemKind::kPulse)(std::move(update));
        cluster.queue().run();
        auto read_back = profiles.make_find(workloads::key_of(user),
                                            nullptr);
        std::uint64_t word = 0;
        read_back.done = [&](offload::Completion&& completion) {
            word = profiles.parse_find(completion).value_word;
        };
        cluster.submitter(core::SystemKind::kPulse)(
            std::move(read_back));
        cluster.queue().run();
        const auto expected = profile_bytes(user, 3);
        std::uint64_t expected_word = 0;
        std::memcpy(&expected_word, expected.data(), 8);
        std::printf("  update+readback: %s\n",
                    ok && word == expected_word ? "verified"
                                                : "MISMATCH");
    }

    // --- Cache-based baseline on the same store ---------------------
    Rng cache_rng(2026);
    auto cache_result = serve::run_closed_loop(
        cluster.queue(), cluster.submitter(core::SystemKind::kCache),
        [&](std::uint64_t) {
            return profiles.make_find(
                workloads::key_of(cache_rng.next_below(kProfiles)),
                nullptr);
        },
        serve::closed_loop(50, 300, 8));
    std::printf("\nCache-based far memory (Fastswap-like), same "
                "lookups:\n");
    std::printf("  mean latency  : %s (%.0fx pulse)\n",
                format_time(cache_result.latency.mean()).c_str(),
                static_cast<double>(cache_result.latency.mean()) /
                    static_cast<double>(result.latency.mean()));
    std::printf("  page faults   : %llu over %llu ops\n",
                (unsigned long long)
                    cluster.cache_client().stats().faults.value(),
                (unsigned long long)cache_result.finished());
    std::printf("\npointer chasing defeats page caching: nearly every "
                "hop faults.\n");
    return 0;
}
