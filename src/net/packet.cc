#include "net/packet.h"

namespace pulse::net {

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
