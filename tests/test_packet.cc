/**
 * @file
 * Tests for the packed form of a traversal packet (net::pack /
 * net::unpack): over randomized packets with every used size, packing
 * and unpacking writes exactly the bytes copy_used() writes, and the
 * packed size never exceeds the packet's.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "net/packet.h"

namespace pulse::net {
namespace {

/** A packet whose every byte is random, apart from valid values in the
 *  bool and enum fields, with the given used sizes and lineage set. */
TraversalPacket
random_packet(std::mt19937_64& rng, std::size_t scratch_bytes,
              std::size_t spawns)
{
    TraversalPacket p;
    auto* bytes = reinterpret_cast<std::uint8_t*>(&p);
    for (std::size_t i = 0; i < sizeof p; i++) {
        bytes[i] = static_cast<std::uint8_t>(rng());
    }
    p.is_response = rng() % 2 == 0;
    p.status = static_cast<isa::TraversalStatus>(rng() % 3);
    p.fault = isa::ExecFault::kNone;
    p.trace.sampled = rng() % 2 == 0;
    p.allow_switch_continuation = rng() % 2 == 0;
    p.scratch.resize(scratch_bytes);
    for (std::uint8_t& byte : p.scratch) {
        byte = static_cast<std::uint8_t>(rng());
    }
    p.spawns.clear();
    for (std::size_t i = 0; i < spawns; i++) {
        isa::SpawnRecord record;
        record.start_ptr = rng();
        record.arg_length =
            static_cast<std::uint16_t>(rng() % (isa::kSpawnArgBytes + 1));
        for (std::uint8_t& byte : record.args) {
            byte = static_cast<std::uint8_t>(rng());
        }
        p.spawns.push(record);
    }
    p.spawn_depth = static_cast<std::uint32_t>(1 + rng() % 7);
    p.parent_id = {static_cast<ClientId>(rng()), 1 + rng() % 1000};
    p.branch_index = static_cast<std::uint32_t>(rng() % 8);
    return p;
}

TEST(PacketPack, RoundTripWritesWhatCopyUsedWrites)
{
    std::mt19937_64 rng(7);
    std::vector<std::uint8_t> packed(sizeof(TraversalPacket));
    for (int round = 0; round < 3000; round++) {
        const std::size_t scratch_bytes = rng() % (kScratchCapacity + 1);
        const std::size_t spawns = rng() % (SpawnList::kCapacity + 1);
        const TraversalPacket p = random_packet(rng, scratch_bytes, spawns);
        // Both destinations start from the same random bytes, so a
        // byte either path leaves alone compares equal too.
        const TraversalPacket base = random_packet(
            rng, rng() % (kScratchCapacity + 1),
            rng() % (SpawnList::kCapacity + 1));
        TraversalPacket copied = base;
        TraversalPacket unpacked = base;

        const std::size_t used = copy_used(copied, p);
        const std::size_t size = packed_size(scratch_bytes, spawns);
        ASSERT_LE(size, sizeof(TraversalPacket));
        ASSERT_EQ(size, used);
        ASSERT_EQ(pack(packed.data(), p), size);
        ASSERT_EQ(unpack(unpacked, packed.data(), scratch_bytes, spawns),
                  size);
        ASSERT_EQ(std::memcmp(&copied, &unpacked, sizeof copied), 0)
            << "round " << round << ": " << scratch_bytes
            << " scratch bytes, " << spawns << " spawns";
        ASSERT_TRUE(unpacked.scratch == p.scratch);
        ASSERT_TRUE(unpacked.spawns == p.spawns);
        ASSERT_EQ(unpacked.parent_id, p.parent_id);
        ASSERT_EQ(unpacked.branch_index, p.branch_index);
        ASSERT_EQ(unpacked.spawn_depth, p.spawn_depth);
    }
}

TEST(PacketPack, PackedSizeSpansHeaderUsedBytesAndTail)
{
    // 104-byte header, 6-byte gap and 32-byte lineage tail around the
    // used scratch bytes and spawn records.
    EXPECT_EQ(packed_size(0, 0), 142u);
    EXPECT_EQ(packed_size(96, 0), 238u);
    EXPECT_EQ(packed_size(kScratchCapacity, SpawnList::kCapacity),
              142u + kScratchCapacity +
                  SpawnList::kCapacity * sizeof(isa::SpawnRecord));
    EXPECT_LE(packed_size(kScratchCapacity, SpawnList::kCapacity),
              sizeof(TraversalPacket));
}

}  // namespace
}  // namespace pulse::net
