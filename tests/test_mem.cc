/**
 * @file
 * Unit tests for the memory substrate: physical memory, the global
 * address map, the range TCAM, the cluster allocator (all policies),
 * and the memory-channel bandwidth model.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/random.h"
#include "mem/allocator.h"
#include "mem/global_memory.h"
#include "mem/memory_channel.h"
#include "mem/range_tcam.h"

namespace pulse::mem {
namespace {

// ------------------------------------------------- physical memory

TEST(PhysicalMemory, ReadWriteRoundTrip)
{
    PhysicalMemory memory(4 * kMiB);
    const char text[] = "pulse accelerates pointer traversals";
    memory.write(1234, text, sizeof(text));
    char out[sizeof(text)] = {};
    memory.read(1234, out, sizeof(text));
    EXPECT_STREQ(out, text);
}

TEST(PhysicalMemory, UntouchedMemoryReadsZero)
{
    PhysicalMemory memory(4 * kMiB);
    std::uint64_t word = 0xFFFF;
    memory.read(2 * kMiB, &word, 8);
    EXPECT_EQ(word, 0u);
    EXPECT_EQ(memory.committed(), 0u);  // reads commit nothing
}

TEST(PhysicalMemory, LazyCommitOnWrite)
{
    PhysicalMemory memory(64 * kMiB);
    EXPECT_EQ(memory.committed(), 0u);
    memory.write_as<std::uint64_t>(0, 1);
    memory.write_as<std::uint64_t>(32 * kMiB, 2);
    EXPECT_EQ(memory.committed(), 2 * kMiB);  // two 1 MiB chunks
    // The rest of a chunk that a write committed reads back as zero.
    EXPECT_EQ(memory.read_as<std::uint64_t>(8), 0u);
    EXPECT_EQ(memory.read_as<std::uint64_t>(33 * kMiB - 8), 0u);
    EXPECT_EQ(memory.committed(), 2 * kMiB);
}

TEST(PhysicalMemory, CrossChunkAccess)
{
    PhysicalMemory memory(4 * kMiB);
    std::vector<std::uint8_t> data(4096);
    for (std::size_t i = 0; i < data.size(); i++) {
        data[i] = static_cast<std::uint8_t>(i * 7);
    }
    const PhysAddr addr = kMiB - 2048;  // straddles a chunk boundary
    memory.write(addr, data.data(), data.size());
    std::vector<std::uint8_t> out(4096);
    memory.read(addr, out.data(), out.size());
    EXPECT_EQ(out, data);
}

TEST(PhysicalMemory, PrefetchIsOnlyAHint)
{
    PhysicalMemory memory(4 * kMiB);
    memory.write_as<std::uint64_t>(kMiB - 8, 1);  // commits chunk 0
    const std::uint64_t mutations = memory.mutations();
    memory.prefetch(2 * kMiB, 256);       // uncommitted chunk
    memory.prefetch(kMiB - 128, 256);     // across a chunk boundary
    memory.prefetch(4 * kMiB - 1, 1);     // the last byte
    memory.prefetch(4 * kMiB - 64, 512);  // past capacity
    memory.prefetch(8 * kMiB, 256);       // wholly past capacity
    EXPECT_EQ(memory.committed(), kMiB);
    EXPECT_EQ(memory.mutations(), mutations);
    EXPECT_EQ(memory.read_as<std::uint64_t>(kMiB - 8), 1u);
}

/** Zero bytes among the first @p len of @p bytes. */
Bytes
zeros(const std::vector<std::uint8_t>& bytes, Bytes len)
{
    return static_cast<Bytes>(
        std::count(bytes.begin(), bytes.begin() + len, 0));
}

TEST(PhysicalMemory, AlignedNodeSpansFourHostLines)
{
    // Heap-allocated chunks sat 16 B past a cache line, so every 256 B
    // node touched a fifth line that the prefetch never fetched.
    PhysicalMemory memory(8 * kMiB);
    for (const PhysAddr addr :
         {PhysAddr{0}, PhysAddr{256}, kMiB - 256, 5 * kMiB + 0x1300}) {
        memory.write_as<std::uint64_t>(addr, 1);
        const auto first =
            reinterpret_cast<std::uintptr_t>(memory.host_address(addr));
        EXPECT_EQ((first + 255) / 64 - first / 64 + 1, 4u) << addr;
    }
}

TEST(PhysicalMemory, UnwrittenBytesOfACommittedExtentReadZero)
{
    PhysicalMemory memory(8 * kMiB);
    memory.write_as<std::uint64_t>(8, 7);
    memory.write_as<std::uint64_t>(kMiB + 4096, 9);  // fills extent 0
    memory.write_as<std::uint64_t>(2 * kMiB, 5);     // half of extent 1
    std::vector<std::uint8_t> extent(2 * kMiB);
    memory.read(0, extent.data(), extent.size());
    std::uint64_t word = 0;
    std::memcpy(&word, &extent[8], 8);
    EXPECT_EQ(word, 7u);
    std::memcpy(&word, &extent[kMiB + 4096], 8);
    EXPECT_EQ(word, 9u);
    std::memset(&extent[8], 0, 8);
    std::memset(&extent[kMiB + 4096], 0, 8);
    EXPECT_EQ(zeros(extent, 2 * kMiB), 2 * kMiB);
    // Extent 1's other chunk was never written.
    memory.read(3 * kMiB, extent.data(), kMiB);
    EXPECT_EQ(zeros(extent, kMiB), kMiB);
    EXPECT_EQ(memory.committed(), 3 * kMiB);
    // A collapse is tried once per full extent; the host may refuse it.
    EXPECT_LE(memory.huge_extents(), 1u);
}

TEST(PhysicalMemory, RestoreOverACollapsedExtentDropsChunksAbsentFromIt)
{
    PhysicalMemory memory(8 * kMiB);
    memory.write_as<std::uint64_t>(64, 1);
    StateIo save;
    memory.checkpoint(save);
    const std::vector<std::uint8_t> blob = save.take();

    memory.write_as<std::uint64_t>(64, 2);
    memory.write_as<std::uint64_t>(kMiB + 64, 3);  // fills extent 0
    memory.write_as<std::uint64_t>(6 * kMiB, 4);
    StateIo restore(blob);
    memory.checkpoint(restore);
    ASSERT_TRUE(restore.finish()) << restore.error();

    EXPECT_EQ(memory.read_as<std::uint64_t>(64), 1u);
    EXPECT_EQ(memory.committed(), kMiB);
    EXPECT_EQ(memory.huge_extents(), 0u);
    std::vector<std::uint8_t> chunk(kMiB, 0xFF);
    for (const PhysAddr dropped : {kMiB, 6 * kMiB}) {
        memory.read(dropped, chunk.data(), kMiB);
        EXPECT_EQ(zeros(chunk, kMiB), kMiB) << dropped;
    }
}

TEST(PhysicalMemory, CommittedCountsWholeChunks)
{
    PhysicalMemory memory(3 * kMiB + 4096);
    memory.write_as<std::uint8_t>(0, 1);
    EXPECT_EQ(memory.committed(), kMiB);
    memory.write_as<std::uint8_t>(kMiB - 1, 1);
    EXPECT_EQ(memory.committed(), kMiB);
    std::vector<std::uint8_t> span(4096, 1);
    memory.write(2 * kMiB - 2048, span.data(), span.size());
    EXPECT_EQ(memory.committed(), 3 * kMiB);
    memory.write_as<std::uint8_t>(3 * kMiB + 4095, 1);  // the tail chunk
    EXPECT_EQ(memory.committed(), 4 * kMiB);
}

TEST(PhysicalMemoryDeath, OutOfRangePanics)
{
    PhysicalMemory memory(1 * kMiB);
    std::uint64_t word = 0;
    EXPECT_DEATH(memory.read(kMiB - 4, &word, 8), "past end");
}

// ------------------------------------------------------ address map

TEST(AddressMap, PartitionsAreContiguousAndDisjoint)
{
    AddressMap map(4, 256 * kMiB);
    for (NodeId node = 0; node < 4; node++) {
        const NodeRegion& region = map.region(node);
        EXPECT_EQ(region.node, node);
        EXPECT_EQ(*map.node_for(region.base), node);
        EXPECT_EQ(*map.node_for(region.base + region.size - 1), node);
        EXPECT_EQ(map.offset_in_region(region.base), 0u);
    }
    // Boundary between node 0 and node 1.
    const VirtAddr boundary = map.region(1).base;
    EXPECT_EQ(*map.node_for(boundary - 1), 0u);
    EXPECT_EQ(*map.node_for(boundary), 1u);
}

TEST(AddressMap, OutOfSpaceReturnsNullopt)
{
    AddressMap map(2, 64 * kMiB);
    EXPECT_FALSE(map.node_for(0).has_value());
    EXPECT_FALSE(map.node_for(kNullAddr).has_value());
    const VirtAddr past = map.region(1).base + map.region_size();
    EXPECT_FALSE(map.node_for(past).has_value());
}

// ------------------------------------------------------- range tcam

TEST(RangeTcam, InsertLookupRemove)
{
    RangeTcam tcam(8);
    EXPECT_TRUE(tcam.insert({0x1000, 0x1000, 0x0, Perm::kReadWrite}));
    EXPECT_TRUE(tcam.insert({0x3000, 0x1000, 0x8000, Perm::kRead}));
    EXPECT_EQ(tcam.size(), 2u);

    auto hit = tcam.translate(0x1800, Perm::kRead);
    EXPECT_EQ(hit.status, TranslateStatus::kOk);
    EXPECT_EQ(hit.phys, 0x800u);

    auto second = tcam.translate(0x3010, Perm::kRead);
    EXPECT_EQ(second.status, TranslateStatus::kOk);
    EXPECT_EQ(second.phys, 0x8010u);

    EXPECT_TRUE(tcam.remove(0x1000));
    EXPECT_FALSE(tcam.remove(0x1000));
    EXPECT_EQ(tcam.translate(0x1800, Perm::kRead).status,
              TranslateStatus::kMiss);
}

TEST(RangeTcam, MissOutsideRanges)
{
    RangeTcam tcam(4);
    tcam.insert({0x1000, 0x1000, 0, Perm::kReadWrite});
    EXPECT_EQ(tcam.translate(0xFFF, Perm::kRead).status,
              TranslateStatus::kMiss);
    EXPECT_EQ(tcam.translate(0x2000, Perm::kRead).status,
              TranslateStatus::kMiss);
}

TEST(RangeTcam, ProtectionEnforced)
{
    RangeTcam tcam(4);
    tcam.insert({0x1000, 0x1000, 0, Perm::kRead});
    EXPECT_EQ(tcam.translate(0x1000, Perm::kRead).status,
              TranslateStatus::kOk);
    EXPECT_EQ(tcam.translate(0x1000, Perm::kWrite).status,
              TranslateStatus::kProtectionFault);
    EXPECT_EQ(tcam.translate(0x1000, Perm::kReadWrite).status,
              TranslateStatus::kProtectionFault);
}

TEST(RangeTcam, OverlapRejected)
{
    RangeTcam tcam(8);
    EXPECT_TRUE(tcam.insert({0x1000, 0x1000, 0, Perm::kRead}));
    EXPECT_FALSE(tcam.insert({0x1800, 0x1000, 0, Perm::kRead}));
    EXPECT_FALSE(tcam.insert({0x0800, 0x1000, 0, Perm::kRead}));
    EXPECT_FALSE(tcam.insert({0x1000, 0x10, 0, Perm::kRead}));
    EXPECT_TRUE(tcam.insert({0x2000, 0x10, 0, Perm::kRead}));
}

TEST(RangeTcam, CapacityEnforced)
{
    RangeTcam tcam(2);
    EXPECT_TRUE(tcam.insert({0x1000, 0x100, 0, Perm::kRead}));
    EXPECT_TRUE(tcam.insert({0x2000, 0x100, 0, Perm::kRead}));
    EXPECT_FALSE(tcam.insert({0x3000, 0x100, 0, Perm::kRead}));
}

TEST(RangeTcam, SpanMustFitOneEntry)
{
    RangeTcam tcam(4);
    tcam.insert({0x1000, 0x100, 0, Perm::kRead});
    EXPECT_EQ(tcam.translate_span(0x10F0, 0x10, Perm::kRead).status,
              TranslateStatus::kOk);
    EXPECT_EQ(tcam.translate_span(0x10F0, 0x11, Perm::kRead).status,
              TranslateStatus::kMiss);
}

// -------------------------------------------------- global memory

TEST(GlobalMemory, CrossNodeIsolation)
{
    GlobalMemory memory(2, 16 * kMiB);
    const VirtAddr a = memory.address_map().region(0).base + 64;
    const VirtAddr b = memory.address_map().region(1).base + 64;
    memory.write_as<std::uint64_t>(a, 111);
    memory.write_as<std::uint64_t>(b, 222);
    EXPECT_EQ(memory.read_as<std::uint64_t>(a), 111u);
    EXPECT_EQ(memory.read_as<std::uint64_t>(b), 222u);
    // Same node-local offset, different nodes: independent bytes.
    EXPECT_EQ(memory.node(0).read_as<std::uint64_t>(64), 111u);
    EXPECT_EQ(memory.node(1).read_as<std::uint64_t>(64), 222u);
}

// --------------------------------------------------------- allocator

TEST(Allocator, PartitionedPinsNodes)
{
    AddressMap map(4, 16 * kMiB);
    ClusterAllocator alloc(map, AllocPolicy::kPartitioned);
    for (NodeId node = 0; node < 4; node++) {
        const VirtAddr addr = alloc.alloc_on(node, 256, 256);
        EXPECT_EQ(*map.node_for(addr), node);
        EXPECT_EQ(addr % 256, 0u);
        EXPECT_EQ(alloc.allocated_on(node), 256u);
    }
}

TEST(Allocator, ExhaustionFailsCleanly)
{
    AddressMap map(1, 1 * kMiB);
    ClusterAllocator alloc(map, AllocPolicy::kPartitioned);
    EXPECT_NE(alloc.alloc_on(0, 1 * kMiB, 8), kNullAddr);
    EXPECT_EQ(alloc.alloc_on(0, 1, 8), kNullAddr);
    EXPECT_EQ(alloc.allocated_on(0), 1 * kMiB);
}

TEST(Allocator, UniformSpreadsAcrossNodes)
{
    AddressMap map(4, 64 * kMiB);
    ClusterAllocator alloc(map, AllocPolicy::kUniform, /*seed=*/9,
                           /*chunk=*/0);
    std::vector<int> per_node(4, 0);
    for (int i = 0; i < 4000; i++) {
        const VirtAddr addr = alloc.alloc(64, 64);
        per_node[*map.node_for(addr)]++;
    }
    for (const int count : per_node) {
        EXPECT_NEAR(count, 1000, 150);
    }
}

TEST(Allocator, UniformChunkingKeepsRunsLocal)
{
    AddressMap map(4, 64 * kMiB);
    ClusterAllocator alloc(map, AllocPolicy::kUniform, 9,
                           /*chunk=*/8 * kKiB);
    // Consecutive 256 B allocations inside one 8 KiB slab share a node
    // and are contiguous.
    NodeId previous_node = kInvalidNode;
    VirtAddr previous = kNullAddr;
    int node_switches = 0;
    for (int i = 0; i < 320; i++) {  // 10 slabs worth
        const VirtAddr addr = alloc.alloc(256, 256);
        const NodeId node = *map.node_for(addr);
        if (previous != kNullAddr && node == previous_node) {
            EXPECT_EQ(addr, previous + 256);
        }
        if (previous_node != kInvalidNode && node != previous_node) {
            node_switches++;
        }
        previous = addr;
        previous_node = node;
    }
    // Roughly one switch opportunity per slab (32 allocations).
    EXPECT_LE(node_switches, 10);
}

TEST(Allocator, RandomAllocationsNeverOverlap)
{
    AddressMap map(2, 8 * kMiB);
    ClusterAllocator alloc(map, AllocPolicy::kUniform, 77, 4 * kKiB);
    Rng rng(123);
    std::vector<std::pair<VirtAddr, Bytes>> blocks;
    for (int i = 0; i < 2000; i++) {
        const Bytes size = 8 + rng.next_below(512);
        const VirtAddr addr = alloc.alloc(size, 8);
        ASSERT_NE(addr, kNullAddr);
        blocks.emplace_back(addr, size);
    }
    std::sort(blocks.begin(), blocks.end());
    for (std::size_t i = 1; i < blocks.size(); i++) {
        EXPECT_LE(blocks[i - 1].first + blocks[i - 1].second,
                  blocks[i].first)
            << "overlap at block " << i;
    }
}

TEST(Allocator, BackingFreeAndReallocReusesAddresses)
{
    // The migration path: free a vacated slab's backing, reallocate on
    // the same node, and the hole is reused instead of leaking.
    AddressMap map(2, 1 * kMiB);
    ClusterAllocator alloc(map, AllocPolicy::kPartitioned);
    const Bytes slab = 64 * kKiB;
    const Bytes a = alloc.alloc_backing(0, slab, 256);
    const Bytes b = alloc.alloc_backing(0, slab, 256);
    ASSERT_NE(a, ClusterAllocator::kNoBacking);
    ASSERT_EQ(b, a + slab);  // bump frontier
    EXPECT_EQ(alloc.free_list_bytes(0), 0u);

    alloc.free_backing(0, a, slab);
    EXPECT_EQ(alloc.free_list_bytes(0), slab);

    // First fit reuses the hole; the frontier does not move.
    const Bytes frontier = alloc.allocated_on(0);
    const Bytes c = alloc.alloc_backing(0, 16 * kKiB, 256);
    EXPECT_EQ(c, a);
    EXPECT_EQ(alloc.free_list_bytes(0), slab - 16 * kKiB);
    EXPECT_EQ(alloc.allocated_on(0), frontier);

    // Freeing merges back into one hole, reusable at full size.
    alloc.free_backing(0, c, 16 * kKiB);
    EXPECT_EQ(alloc.free_list_bytes(0), slab);
    EXPECT_EQ(alloc.alloc_backing(0, slab, 256), a);
    EXPECT_EQ(alloc.free_list_bytes(0), 0u);

    // Per-node isolation: node 1's list is untouched throughout.
    EXPECT_EQ(alloc.free_list_bytes(1), 0u);

    // Too-large requests fall back to the frontier, not the holes.
    alloc.free_backing(0, a, slab);
    const Bytes d = alloc.alloc_backing(0, 2 * slab, 256);
    EXPECT_EQ(d, frontier);
    EXPECT_EQ(alloc.free_list_bytes(0), slab);
}

TEST(AllocatorDeath, BackingDoubleFreePanics)
{
    AddressMap map(1, 1 * kMiB);
    ClusterAllocator alloc(map, AllocPolicy::kPartitioned);
    const Bytes a = alloc.alloc_backing(0, 4 * kKiB, 256);
    alloc.free_backing(0, a, 4 * kKiB);
    EXPECT_DEATH(alloc.free_backing(0, a, 4 * kKiB), "free");
}

// ---------------------------------------------------------- channels

TEST(MemoryChannel, OccupancySerializes)
{
    MemoryChannel channel(gbps_bytes(12.5));
    // 256 B at 12.5 GB/s = 20.48 ns.
    const Time first = channel.access(0, 256);
    EXPECT_NEAR(static_cast<double>(first), 20.48e3, 50.0);
    const Time second = channel.access(0, 256);  // queues behind
    EXPECT_NEAR(static_cast<double>(second),
                2 * static_cast<double>(first), 100.0);
    EXPECT_EQ(channel.bytes_transferred(), 512u);
}

TEST(MemoryChannel, IdleGapsDontAccumulate)
{
    MemoryChannel channel(gbps_bytes(12.5));
    channel.access(0, 256);
    const Time later = channel.access(micros(1.0), 256);
    EXPECT_NEAR(static_cast<double>(later - micros(1.0)), 20.48e3,
                50.0);
}

TEST(ChannelSet, LeastBusySteering)
{
    ChannelSet channels(2, gbps_bytes(17.0), 12.5 / 17.0);
    // Two concurrent accesses land on different channels: both finish
    // at the single-access completion time.
    const Time a = channels.access(0, 256);
    const Time b = channels.access(0, 256);
    EXPECT_EQ(a, b);
    const Time c = channels.access(0, 256);  // now queues
    EXPECT_GT(c, a);
}

TEST(ChannelSet, InterconnectTogglesBandwidth)
{
    ChannelSet channels(2, gbps_bytes(17.0), 12.5 / 17.0);
    EXPECT_NEAR(channels.total_effective_bandwidth(), 25e9, 1e6);
    channels.set_interconnect_enabled(false);
    EXPECT_NEAR(channels.total_effective_bandwidth(), 34e9, 1e6);
    channels.set_interconnect_enabled(true);
    EXPECT_NEAR(channels.total_effective_bandwidth(), 25e9, 1e6);
}

TEST(ChannelSet, AchievedBandwidthAccounting)
{
    ChannelSet channels(2, gbps_bytes(17.0), 12.5 / 17.0);
    for (int i = 0; i < 1000; i++) {
        channels.access(0, 256);
    }
    EXPECT_EQ(channels.bytes_transferred(), 256'000u);
    // 256 KB over 10 us window = 25.6 GB/s.
    EXPECT_NEAR(channels.achieved_bandwidth(micros(10.0)), 25.6e9,
                1e8);
    channels.reset_stats();
    EXPECT_EQ(channels.bytes_transferred(), 0u);
}

}  // namespace
}  // namespace pulse::mem
