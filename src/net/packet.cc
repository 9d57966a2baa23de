#include "net/packet.h"

#include <cstddef>
#include <cstring>
#include <type_traits>

namespace pulse::net {

namespace {

/** Header: every field before the scratch pad. */
constexpr std::size_t kHeaderBytes = offsetof(TraversalPacket, scratch);
/** Between the scratch pad and the spawn list (padding today). */
constexpr std::size_t kGapBegin =
    offsetof(TraversalPacket, scratch) + sizeof(ScratchBuffer);
constexpr std::size_t kGapEnd = offsetof(TraversalPacket, spawns);
/** After the spawn list: the lineage fields, to the packet's end. */
constexpr std::size_t kTailBegin =
    offsetof(TraversalPacket, spawns) + sizeof(SpawnList);

// copy_used(), pack() and unpack() block-copy every byte outside the
// scratch pad and the spawn list, so a field added anywhere else is
// copied with no change here; only the two arrays are copied up to
// their used sizes.
static_assert(std::is_standard_layout_v<TraversalPacket>);
static_assert(kHeaderBytes == 104 && kGapBegin <= kGapEnd);

/** Copy bytes [@p begin, @p end) of @p src into @p dst. */
std::size_t
copy_range(TraversalPacket& dst, const TraversalPacket& src,
           std::size_t begin, std::size_t end)
{
    std::memcpy(reinterpret_cast<char*>(&dst) + begin,
                reinterpret_cast<const char*>(&src) + begin, end - begin);
    return end - begin;
}

}  // namespace

std::size_t
copy_used(TraversalPacket& dst, const TraversalPacket& src)
{
    std::size_t bytes = copy_range(dst, src, 0, kHeaderBytes);
    dst.scratch.assign(src.scratch.data(), src.scratch.size());
    bytes += src.scratch.size();
    bytes += copy_range(dst, src, kGapBegin, kGapEnd);
    dst.spawns.clear();
    for (const isa::SpawnRecord& record : src.spawns) {
        dst.spawns.push(record);
    }
    bytes += src.spawns.size() * sizeof(isa::SpawnRecord);
    return bytes + copy_range(dst, src, kTailBegin, sizeof(TraversalPacket));
}

std::size_t
packed_size(std::size_t scratch_bytes, std::size_t spawns)
{
    return kHeaderBytes + scratch_bytes + (kGapEnd - kGapBegin) +
           spawns * sizeof(isa::SpawnRecord) +
           (sizeof(TraversalPacket) - kTailBegin);
}

std::size_t
pack(std::uint8_t* dst, const TraversalPacket& src)
{
    const auto* from = reinterpret_cast<const std::uint8_t*>(&src);
    std::uint8_t* at = dst;
    auto put = [&at](const void* bytes, std::size_t length) {
        std::memcpy(at, bytes, length);
        at += length;
    };
    put(from, kHeaderBytes);
    put(src.scratch.data(), src.scratch.size());
    put(from + kGapBegin, kGapEnd - kGapBegin);
    put(src.spawns.begin(), src.spawns.size() * sizeof(isa::SpawnRecord));
    put(from + kTailBegin, sizeof(TraversalPacket) - kTailBegin);
    return static_cast<std::size_t>(at - dst);
}

std::size_t
unpack(TraversalPacket& dst, const std::uint8_t* src,
       std::size_t scratch_bytes, std::size_t spawns)
{
    auto* to = reinterpret_cast<std::uint8_t*>(&dst);
    const std::uint8_t* at = src;
    auto take = [&at](void* bytes, std::size_t length) {
        std::memcpy(bytes, at, length);
        at += length;
    };
    take(to, kHeaderBytes);
    dst.scratch.assign(at, scratch_bytes);
    at += scratch_bytes;
    take(to + kGapBegin, kGapEnd - kGapBegin);
    dst.spawns.clear();
    for (std::size_t i = 0; i < spawns; i++) {
        isa::SpawnRecord record;
        take(&record, sizeof record);
        dst.spawns.push(record);
    }
    take(to + kTailBegin, sizeof(TraversalPacket) - kTailBegin);
    return static_cast<std::size_t>(at - src);
}

void
attach_program(TraversalPacket& packet, const isa::Program* program)
{
    packet.code_size = program != nullptr ? program->wire_code_size() : 0;
    packet.code = program;
}

namespace {

/** SplitMix64 finalizer: cheap, well-mixing word hash. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

}  // namespace

std::uint64_t
header_checksum(const TraversalPacket& packet)
{
    std::uint64_t h = mix64(
        (static_cast<std::uint64_t>(packet.id.client) << 32) ^
        packet.origin);
    h = mix64(h ^ packet.id.seq);
    h = mix64(h ^ packet.cur_ptr);
    h = mix64(h ^ packet.visit_echo);
    return h != 0 ? h : 1;  // reserve 0 for "not sealed"
}

void
seal_packet(TraversalPacket& packet)
{
    packet.checksum = header_checksum(packet);
}

bool
verify_packet(const TraversalPacket& packet)
{
    return packet.checksum == 0 ||
           packet.checksum == header_checksum(packet);
}

}  // namespace pulse::net
