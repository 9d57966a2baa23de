/**
 * @file
 * Wire formats for pulse traversal traffic.
 *
 * pulse uses one packet format for requests and responses (paper section
 * 4.2.4): the offloaded iterator's code, cur_ptr, and scratch_pad travel
 * in every packet, so a response can be re-routed by the switch to
 * another memory node and continue executing there unchanged (section
 * 5). wire_size() gives the modelled on-the-wire footprint used for all
 * bandwidth accounting.
 */
#ifndef PULSE_NET_PACKET_H
#define PULSE_NET_PACKET_H

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/scratch_buffer.h"
#include "common/types.h"
#include "common/units.h"
#include "isa/program.h"
#include "isa/traversal.h"

namespace pulse::net {

/**
 * Per-request tracing metadata carried by every traversal packet
 * (simulator-side only: contributes no wire bytes, exactly like a
 * tracing sideband an implementation would keep in host metadata).
 * `sampled` is stamped by the offload engine when the cluster's
 * tracer is enabled; instrumented components record span events only
 * for sampled packets. `queued_at` carries the admission-queue entry
 * time so the accelerator can emit a workspace-wait span on dispatch.
 */
struct TraceContext
{
    bool sampled = false;
    Time queued_at = 0;

    friend bool operator==(const TraceContext&,
                           const TraceContext&) = default;
};

/** Ethernet + IPv4 + UDP header bytes modelled per packet. */
inline constexpr Bytes kNetHeaderBytes = 42;

/** Fixed pulse packet fields: id, origin, flags, cur_ptr, iterations. */
inline constexpr Bytes kPulseHeaderBytes = 12 + 4 + 4 + 8 + 8;

/**
 * Wire bytes of a program *reference* (digest id + length) used once
 * the accelerators have the program installed. The offload engine
 * ships full code for the first few requests of each program (one
 * install per accelerator) and ids afterwards; continuations forwarded
 * between nodes carry ids only. This keeps network utilization in the
 * paper's reported 0.92-3.7% band (see DESIGN.md).
 */
inline constexpr Bytes kCodeIdBytes = 16;

/**
 * Inline fixed-capacity list of SPAWN records (fork/join extension).
 * Mirrors ScratchBuffer's design: the few whole-packet copies left
 * (replay-window entries, retransmit buffers, duplicates) must stay
 * flat memcpys, so the list keeps TraversalPacket trivially
 * copyable. Capacity is isa::kMaxSpawnsPerVisit — the accelerator
 * ends the visit the moment an iteration emits spawns ("spawn
 * flush"), and verify() caps a program at 16 static SPAWN sites, so
 * one visit can never overflow the list (the accelerator faults
 * kSpawnOverflow defensively).
 */
class SpawnList
{
  public:
    static constexpr std::size_t kCapacity = isa::kMaxSpawnsPerVisit;

    bool
    push(const isa::SpawnRecord& record)
    {
        if (size_ >= kCapacity) {
            return false;
        }
        records_[size_++] = record;
        return true;
    }

    void clear() { size_ = 0; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    const isa::SpawnRecord&
    operator[](std::size_t i) const
    {
        return records_[i];
    }

    const isa::SpawnRecord* begin() const { return records_.data(); }
    const isa::SpawnRecord* end() const { return records_.data() + size_; }

    /**
     * Modelled wire bytes: nothing when empty (sequential traffic is
     * byte-identical to the pre-fork format), else a 2 B count word
     * plus, per record, the start pointer (8 B), the argument window
     * descriptor (4 B) and the argument bytes actually shipped.
     */
    Bytes
    wire_bytes() const
    {
        if (size_ == 0) {
            return 0;
        }
        Bytes bytes = 2;
        for (std::size_t i = 0; i < size_; i++) {
            bytes += 12 + records_[i].arg_length;
        }
        return bytes;
    }

    friend bool
    operator==(const SpawnList& a, const SpawnList& b)
    {
        if (a.size_ != b.size_) {
            return false;
        }
        for (std::size_t i = 0; i < a.size_; i++) {
            const auto& ra = a.records_[i];
            const auto& rb = b.records_[i];
            if (ra.start_ptr != rb.start_ptr ||
                ra.arg_offset != rb.arg_offset ||
                ra.arg_length != rb.arg_length ||
                std::memcmp(ra.args, rb.args, ra.arg_length) != 0) {
                return false;
            }
        }
        return true;
    }

  private:
    std::array<isa::SpawnRecord, kCapacity> records_ = {};
    std::uint16_t size_ = 0;
};

/** Addressable endpoints in the rack. */
struct EndpointAddr
{
    enum class Kind : std::uint8_t { kClient, kMemNode };

    Kind kind = Kind::kClient;
    std::uint32_t index = 0;

    static EndpointAddr
    client(ClientId id)
    {
        return {Kind::kClient, id};
    }

    static EndpointAddr
    mem_node(NodeId id)
    {
        return {Kind::kMemNode, id};
    }

    friend bool operator==(const EndpointAddr&,
                           const EndpointAddr&) = default;
};

/**
 * One pulse traversal packet. `is_response` marks packets emitted by an
 * accelerator (traversal ended, faulted, or left the node); the switch
 * inspects status/cur_ptr to decide between delivering to the origin
 * client and re-routing to the next memory node.
 */
struct TraversalPacket
{
    RequestId id;
    ClientId origin = 0;

    /**
     * Tenant identity (serving plane, src/serve). Stamped by the
     * issuing offload engine from Operation::tenant and echoed on
     * every descendant packet (responses, forwarded continuations,
     * fork children), so QoS admission control at any memory node can
     * attribute the request. Rides the existing flags words of the
     * pulse header (a DSCP-style codepoint), so wire_size() is
     * unchanged and tenant-less traffic stays byte-identical.
     */
    std::uint32_t tenant = 0;

    bool is_response = false;
    isa::TraversalStatus status = isa::TraversalStatus::kDone;
    isa::ExecFault fault = isa::ExecFault::kNone;
    VirtAddr cur_ptr = kNullAddr;
    std::uint64_t iterations_done = 0;

    /**
     * Echo of the request's iterations_done at the issuing client
     * (section 4.1's request-id mechanism extended for reliable
     * delivery): every response and forwarded continuation descending
     * from one client issue carries the issue's value, so the client
     * can reject stale duplicates of an earlier visit after it has
     * already resumed the traversal. On the wire this echoes a header
     * word the packet already carries (the request's iterations field),
     * so wire_size() is unchanged.
     */
    std::uint64_t visit_echo = 0;

    /** Tracing sideband (no wire bytes; see TraceContext). */
    TraceContext trace;

    /**
     * Header checksum over the fields the switch never rewrites
     * (id, origin, cur_ptr, visit_echo). Models the UDP checksum
     * already counted inside kNetHeaderBytes: the receiving NIC
     * verifies it and discards corrupted packets instead of executing
     * them. Zero means "not sealed" (checksum not computed).
     */
    std::uint64_t checksum = 0;

    /**
     * True for pulse proper: the switch may re-route a kNotLocal
     * response to the owning memory node. False for the pulse-ACC
     * ablation (section 7.2), which bounces such responses through the
     * origin client.
     */
    bool allow_switch_continuation = true;

    /**
     * The traversal program: a non-owning interned reference.
     * Packets are copied into retransmit buffers, replay-window caches
     * and response slots, and a shared_ptr here would bounce the
     * refcount on each of those — measurable atomic traffic in the
     * event hot path. Instead the issuing OffloadEngine pins one
     * shared_ptr per distinct program for the cluster's lifetime (its
     * per-program record, filled in OffloadEngine::submit), and
     * everything downstream carries this raw pointer; readers take the
     * program's static analysis from code->analysis(). code_size is
     * the wire cost of the code on this packet: the encoded program
     * (Program::wire_code_size()) while it is being installed, then a
     * kCodeIdBytes program id.
     */
    const isa::Program* code = nullptr;
    Bytes code_size = 0;

    /**
     * Shipped scratch_pad contents. Only the program's scratch
     * footprint travels (the offload engine trims it), matching an
     * implementation that ships the configured scratchpad prefix.
     * Stored inline (see scratch_buffer.h) so the packet copies that
     * remain — retransmit buffers, replay caches, response slots —
     * never touch the heap.
     */
    ScratchBuffer scratch;

    /**
     * Fork/join extension. A response whose visit executed SPAWNs
     * carries the spawn records back to the issuing engine, which
     * forks each into a sub-traversal request of its own. Sub-
     * traversal packets carry their lineage — the parent's request id
     * and their branch index — plus their fork depth, so any engine
     * (or a post-failover replica's) can rendezvous them at the
     * parent's join record. All three contribute wire bytes only when
     * set, keeping sequential traffic byte-identical.
     */
    SpawnList spawns;
    std::uint32_t spawn_depth = 0;   ///< 0 = root traversal
    RequestId parent_id = {};        ///< seq 0 = no parent (root)
    std::uint32_t branch_index = 0;  ///< index under parent's join

    /** Modelled bytes on the wire. */
    Bytes
    wire_size() const
    {
        Bytes bytes = kNetHeaderBytes + kPulseHeaderBytes + code_size +
                      scratch.size() + spawns.wire_bytes();
        if (parent_id.seq != 0) {
            // Lineage sideband: parent id (12 B), branch index (2 B),
            // fork depth (1 B).
            bytes += 15;
        }
        return bytes;
    }
};

/**
 * Compile-time no-heap assertion for the packet hot path: every packet
 * copy (arena slots, replay caches, retransmit buffers) must be a flat
 * memcpy. Adding an allocating member here would silently
 * reintroduce per-event heap traffic — fail the build instead.
 */
static_assert(std::is_trivially_copyable_v<TraversalPacket>);

/**
 * Copy the bytes @p src uses into @p dst: everything but the unused
 * parts of the scratch pad and the spawn list, which are most of the
 * packet. Bytes past the used sizes are left as they were; no reader
 * looks past a size. Returns the bytes copied.
 */
std::size_t copy_used(TraversalPacket& dst, const TraversalPacket& src);

/**
 * Bytes pack() writes for a packet with @p scratch_bytes of scratch
 * pad and @p spawns spawn records: the count copy_used() returns.
 */
std::size_t packed_size(std::size_t scratch_bytes, std::size_t spawns);

/**
 * Write the bytes copy_used() would copy from @p src to @p dst, back
 * to back: the header (every field before the scratch pad, byte for
 * byte at its offsetof), the used scratch bytes, the gap before the
 * spawn list, the used spawn records and the lineage tail. The two
 * used sizes are not written; unpack() takes them back. Returns
 * packed_size() of those sizes.
 */
std::size_t pack(std::uint8_t* dst, const TraversalPacket& src);

/**
 * Rebuild into @p dst the packet pack() wrote at @p src, given its
 * scratch size and spawn count: the same bytes of @p dst that
 * copy_used() writes. Returns packed_size(scratch_bytes, spawns).
 */
std::size_t unpack(TraversalPacket& dst, const std::uint8_t* src,
                   std::size_t scratch_bytes, std::size_t spawns);

/**
 * Attach @p program to @p packet, with code_size set to the program's
 * wire_code_size(). The packet stores a non-owning reference: the
 * caller must guarantee the program outlives every packet (and packet
 * copy) referencing it — in the simulator the issuing OffloadEngine
 * pins programs for the cluster's lifetime.
 */
void attach_program(TraversalPacket& packet,
                    const isa::Program* program);

/** Convenience for callers holding a shared_ptr (tests, benches). */
inline void
attach_program(TraversalPacket& packet,
               const std::shared_ptr<const isa::Program>& program)
{
    attach_program(packet, program.get());
}

/**
 * Deleted: attaching an expiring owner would leave the packet's
 * non-owning reference dangling. Keep a named shared_ptr alive.
 */
void attach_program(TraversalPacket& packet,
                    std::shared_ptr<const isa::Program>&& program) =
    delete;

/**
 * Header checksum over the switch-invariant fields of @p packet
 * (id, origin, cur_ptr, visit_echo). Never returns zero, so a sealed
 * packet is distinguishable from an unsealed one.
 */
std::uint64_t header_checksum(const TraversalPacket& packet);

/** Seal @p packet: store its header checksum. */
void seal_packet(TraversalPacket& packet);

/** Verify a sealed packet's header; unsealed packets pass. */
bool verify_packet(const TraversalPacket& packet);

}  // namespace pulse::net

#endif  // PULSE_NET_PACKET_H
