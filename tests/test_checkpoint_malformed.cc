/**
 * @file
 * Malformed checkpoint blobs (common/serial.h, core/checkpoint.cc):
 * whatever the bytes, Cluster::restore_checkpoint either restores or
 * returns false with an error naming the section and byte offset — it
 * never aborts, allocates by an unchecked count, or leaves a value the
 * live cluster would trip over later. Two seeded sweeps (truncations
 * and single-bit flips) cover the whole layout; one direct case per
 * rejected defect pins its message. CI runs this file under ASan+UBSan.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "common/random.h"
#include "core/cluster.h"
#include "serve/fleet.h"

namespace pulse {
namespace {

/** PhysicalMemory's commit granule: each chunk record in a blob is an
 *  index, this length, then this many payload bytes. */
constexpr std::uint64_t kChunkBytes = 1 << 20;

constexpr const char* kTags[] = {"PLSC", "NETW", "SWCH", "GMEM", "PMEM",
                                 "ALOC", "CHAN", "ACCL", "OFFL"};

core::ClusterConfig
small_config()
{
    core::ClusterConfig config;
    config.num_mem_nodes = 2;
    config.accel.workspaces_per_logic = 4;
    // Small enough that a count one past it still fits in the bytes
    // after the first TCAM, so capacity (not size) rejects it.
    config.accel.tcam_entries = 4;
    return config;
}

/** A warmed blob: a small hash table, some lookups (so the TCAMs,
 *  free lists and code-send table are populated). */
const std::vector<std::uint8_t>&
warm_blob()
{
    static const std::vector<std::uint8_t> blob = [] {
        core::Cluster cluster(small_config());
        apps::AppScale scale;
        scale.upc_keys = 2'000;
        apps::UpcApp app(cluster, scale);
        serve::TenantLoad load = serve::closed_loop(0, 64, 4);
        serve::run_closed_loop(cluster.queue(),
                        cluster.submitter(core::SystemKind::kPulse),
                        [&app](std::uint64_t index) {
                            return app.table().make_find(
                                workloads::key_of(index % app.num_keys()),
                                nullptr);
                        },
                        load);
        return cluster.save_checkpoint();
    }();
    return blob;
}

/** Restore @p blob onto a freshly built cluster; "" on success. */
std::string
restore_error(const std::vector<std::uint8_t>& blob)
{
    core::Cluster target(small_config());
    std::string error;
    if (target.restore_checkpoint(blob, &error)) {
        return "";
    }
    EXPECT_FALSE(error.empty()) << "restore failed without a message";
    return error;
}

std::size_t
tag_offset(const std::vector<std::uint8_t>& blob, const char* tag,
           std::size_t from = 0)
{
    return static_cast<std::size_t>(
        std::search(blob.begin() + static_cast<std::ptrdiff_t>(from),
                    blob.end(), tag, tag + 4) -
        blob.begin());
}

/** Offsets outside memory-chunk payloads: where the layout lives. */
std::vector<std::size_t>
structure_offsets(const std::vector<std::uint8_t>& blob)
{
    std::vector<std::size_t> offsets;
    for (std::size_t i = 0; i < blob.size(); i++) {
        offsets.push_back(i);
        std::uint64_t word = 0;
        if (i + 8 <= blob.size()) {
            std::memcpy(&word, blob.data() + i, 8);
        }
        if (word == kChunkBytes && i + 8 + kChunkBytes <= blob.size()) {
            for (std::size_t j = i + 1; j < i + 8; j++) {
                offsets.push_back(j);
            }
            i += 8 + kChunkBytes - 1;
        }
    }
    return offsets;
}

template <typename T>
void
poke(std::vector<std::uint8_t>& blob, std::size_t offset, T value)
{
    ASSERT_LE(offset + sizeof(T), blob.size());
    std::memcpy(blob.data() + offset, &value, sizeof(T));
}

TEST(CheckpointMalformed, WarmBlobRestores)
{
    EXPECT_EQ(restore_error(warm_blob()), "");
}

TEST(CheckpointMalformed, EveryTruncationReturnsAnError)
{
    const std::vector<std::uint8_t>& blob = warm_blob();
    const std::vector<std::size_t> structure = structure_offsets(blob);
    std::vector<std::size_t> lengths;
    for (const char* tag : kTags) {
        for (std::size_t at = tag_offset(blob, tag); at < blob.size();
             at = tag_offset(blob, tag, at + 1)) {
            lengths.insert(lengths.end(), {at, at + 2, at + 4});
        }
    }
    Rng rng(17);
    while (lengths.size() < 1'100) {
        lengths.push_back(structure[rng.next_below(structure.size())]);
    }
    for (int i = 0; i < 8; i++) {
        lengths.push_back(rng.next_below(blob.size()));
    }
    for (const std::size_t length : lengths) {
        const std::vector<std::uint8_t> cut(
            blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(length));
        EXPECT_NE(restore_error(cut), "") << "length " << length;
    }
}

TEST(CheckpointMalformed, EveryBitFlipRestoresOrReturnsAnError)
{
    const std::vector<std::uint8_t>& blob = warm_blob();
    const std::vector<std::size_t> structure = structure_offsets(blob);
    Rng rng(29);
    std::size_t rejected = 0;
    constexpr int kFlips = 1'100;
    for (int i = 0; i < kFlips; i++) {
        // Mostly layout bytes; a few payload bytes, which must restore.
        const std::size_t offset =
            i % 100 == 99 ? rng.next_below(blob.size())
                          : structure[rng.next_below(structure.size())];
        std::vector<std::uint8_t> flipped = blob;
        flipped[offset] ^= static_cast<std::uint8_t>(1u << (i % 8));
        if (!restore_error(flipped).empty()) {
            rejected++;
        }
    }
    // Fingerprint, tags, counts and enums catch a good share; counters
    // and clocks legitimately accept any value.
    EXPECT_GT(rejected, 100u);
    EXPECT_LT(rejected, static_cast<std::size_t>(kFlips));
}

TEST(CheckpointMalformed, HugeCountIsRejectedBeforeAllocating)
{
    std::vector<std::uint8_t> blob = warm_blob();
    poke<std::uint64_t>(blob, tag_offset(blob, "SWCH") + 4, 1ull << 60);
    const std::string error = restore_error(blob);
    EXPECT_NE(error.find("section 'SWCH'"), std::string::npos) << error;
    EXPECT_NE(error.find("cannot fit"), std::string::npos) << error;
}

TEST(CheckpointMalformed, SwitchRuleNodeBeyondTheClusterIsRejected)
{
    std::vector<std::uint8_t> blob = warm_blob();
    // SWCH, rule count, then the first rule's base, size and node.
    poke<std::uint32_t>(blob, tag_offset(blob, "SWCH") + 4 + 8 + 16, 2);
    const std::string error = restore_error(blob);
    EXPECT_NE(error.find("switch rule names node 2 of 2"),
              std::string::npos)
        << error;
}

/** Offset of the first accelerator's TCAM entry count. */
std::size_t
tcam_count_offset(const std::vector<std::uint8_t>& blob)
{
    const accel::AccelConfig accel = small_config().accel;
    return tag_offset(blob, "ACCL") + 4 + 8 +
           accel.num_cores * (8 + 8 + 8 * accel.eta_pipelines);
}

TEST(CheckpointMalformed, UnsortedTcamIsRejected)
{
    std::vector<std::uint8_t> blob = warm_blob();
    const std::size_t count_at = tcam_count_offset(blob);
    std::uint64_t entries = 0;
    std::memcpy(&entries, blob.data() + count_at, 8);
    ASSERT_GE(entries, 1u);
    // Replace the table with two copies of its first entry: the same
    // base twice is not sorted and disjoint. The blob stays well-formed.
    constexpr std::size_t kEntryBytes = 25;
    const auto first = blob.begin() + static_cast<std::ptrdiff_t>(
                                          count_at + 8);
    const std::vector<std::uint8_t> entry(first, first + kEntryBytes);
    std::vector<std::uint8_t> twice = entry;
    twice.insert(twice.end(), entry.begin(), entry.end());
    blob.erase(first, first + static_cast<std::ptrdiff_t>(
                                  entries * kEntryBytes));
    blob.insert(blob.begin() + static_cast<std::ptrdiff_t>(count_at + 8),
                twice.begin(), twice.end());
    poke<std::uint64_t>(blob, count_at, 2);
    const std::string error = restore_error(blob);
    EXPECT_NE(error.find("not sorted and disjoint"), std::string::npos)
        << error;
}

TEST(CheckpointMalformed, TcamOverCapacityIsRejected)
{
    std::vector<std::uint8_t> blob = warm_blob();
    const std::size_t count_at = tcam_count_offset(blob);
    poke<std::uint64_t>(blob, count_at,
                        small_config().accel.tcam_entries + 1);
    const std::string error = restore_error(blob);
    EXPECT_NE(error.find("capacity"), std::string::npos) << error;
}

TEST(CheckpointMalformed, PermOutsideItsEnumIsRejected)
{
    std::vector<std::uint8_t> blob = warm_blob();
    // First TCAM entry: va_base, length, phys_base, then the Perm byte.
    blob[tcam_count_offset(blob) + 8 + 24] = 7;
    const std::string error = restore_error(blob);
    EXPECT_NE(error.find("enum value 7"), std::string::npos) << error;
}

TEST(CheckpointMalformed, ChunkIndexOutOfRangeIsRejected)
{
    std::vector<std::uint8_t> blob = warm_blob();
    // PMEM, capacity, mutations, chunk count, then the first index.
    poke<std::uint64_t>(blob, tag_offset(blob, "PMEM") + 4 + 24,
                        1ull << 40);
    const std::string error = restore_error(blob);
    EXPECT_NE(error.find("section 'PMEM'"), std::string::npos) << error;
    EXPECT_NE(error.find("out of range"), std::string::npos) << error;
}

TEST(CheckpointMalformed, WrongTagNamesTheSectionAndOffset)
{
    std::vector<std::uint8_t> blob = warm_blob();
    const std::size_t at = tag_offset(blob, "ACCL");
    std::memcpy(blob.data() + at, "XXXX", 4);
    const std::string error = restore_error(blob);
    EXPECT_NE(error.find("section 'ACCL' at byte " + std::to_string(at)),
              std::string::npos)
        << error;
}

TEST(CheckpointMalformed, TrailingBytesAreRejected)
{
    std::vector<std::uint8_t> blob = warm_blob();
    blob.push_back(0);
    EXPECT_NE(restore_error(blob).find("1 trailing bytes"),
              std::string::npos);
}

}  // namespace
}  // namespace pulse
