/**
 * @file
 * Duplicate-suppression window for the accelerator's network stack.
 *
 * The offload engine retransmits requests it believes lost, so the same
 * (request id, visit) can arrive at an accelerator more than once — via
 * a retransmitted request, a fault-injected duplicate, or a client
 * resend racing a slow response. Re-executing is harmless for read-only
 * traversals but wrong for programs with stores/CAS (a retransmitted
 * increment must not increment twice). The window makes execution
 * exactly-once per visit: the first arrival executes, concurrent
 * duplicates are suppressed, and duplicates of a completed visit get
 * the cached response replayed (which also repairs dropped inter-node
 * forwards, since the cached packet is the forward).
 *
 * A "visit" is (RequestId, iterations_done at arrival): iterations_done
 * grows monotonically along a traversal, so each legitimate revisit of
 * a node by a multi-hop traversal is a distinct key, while byte-for-byte
 * duplicates collide. Each client has a budget of live entries; once it
 * is reached, marking a new visit evicts the client's oldest live entry,
 * bounding memory like the real accelerator's fixed-size dedup SRAM.
 *
 * Storage, per client, is flat and allocated on the client's first
 * visit: a slot array reserved to exactly the budget and built slot by
 * slot as the high-water mark rises, a response block with room for
 * the budget at a fixed stride, and an open-addressed, linear-probing
 * index (a power of two, at least twice the budget, backward-shift
 * delete) from Key to slot. Live slots are threaded oldest-to-newest by
 * index links, so unmark and forget unlink a slot from the middle of
 * the FIFO in O(1) and eviction takes the oldest live entry; the
 * evicted slot holds the new visit, so once the budget is reached the
 * slots cycle like a ring and nothing allocates. Keys and links stay
 * apart from the responses, so probes and FIFO updates touch one
 * compact array.
 *
 * A cached response is stored packed (net::pack): only the bytes a
 * packet uses, back to back — the 104-byte header, the used scratch
 * bytes and spawn records, and the 38 bytes of lineage fields and
 * padding around the spawn list — with the scratch size and spawn count
 * kept in the slot. The block's stride is the largest packed response
 * the client's ring has held, rounded up to 64 bytes and capped at
 * sizeof(TraversalPacket): 256 bytes for a 238-byte response instead
 * of a whole 920-byte packet. A response wider than the stride re-lays
 * the ring out once at the new stride (a new block, the cached entries
 * copied over), which can happen at most 12 times in a ring's life; the
 * block is allocated without being written, so only the slots up to
 * the high-water mark ever take memory.
 *
 * A visit costs the accelerator two index lookups: claim() (classify
 * and mark fused) on arrival and record_response() on completion. The
 * Ticket claim() returns serves only the calls that follow it at once
 * (cached_bounce, restart, copy_response), on the accelerator's arrival
 * path and in the replication mirror.
 */
#ifndef PULSE_ACCEL_REPLAY_WINDOW_H
#define PULSE_ACCEL_REPLAY_WINDOW_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/types.h"
#include "net/packet.h"

namespace pulse::accel {

/** Bounded exactly-once execution window (one per accelerator). */
class ReplayWindow
{
  public:
    /** One traversal visit: request id + iterations at arrival. */
    struct Key
    {
        RequestId id;
        std::uint64_t visit = 0;

        friend bool operator==(const Key&, const Key&) = default;
    };

    /** Hash for Key (public: the invariant checker keys sets by it). */
    struct KeyHash
    {
        std::size_t
        operator()(const Key& key) const noexcept
        {
            const std::size_t h = std::hash<RequestId>()(key.id);
            // splitmix-style avalanche of the visit into the id hash
            return h ^ (key.visit + 0x9e3779b97f4a7c15ull + (h << 6) +
                        (h >> 2));
        }
    };

    /** What the window knows about an arriving packet's visit. */
    enum class Verdict : std::uint8_t
    {
        kNew,         ///< never seen: execute it (and mark in progress)
        kInProgress,  ///< executing right now: suppress the duplicate
        kCached,      ///< finished: replay the recorded response
    };

    /**
     * Where a key's entry lives. Valid until the window next changes:
     * callers use it right after claim(), never across events.
     */
    struct Ticket
    {
        static constexpr std::uint32_t kNone = ~std::uint32_t{0};

        ClientId client = 0;
        std::uint32_t slot = kNone;
    };

    /** claim()'s answer: the verdict before the call, and the entry. */
    struct Claim
    {
        Verdict verdict = Verdict::kNew;
        Ticket ticket;
    };

    /** @param per_client_entries live-entry budget per client
     *  (> 0). */
    explicit ReplayWindow(std::size_t per_client_entries);

    /** Classify @p key without modifying the window.
     *  Only tests call this: observation hook. */
    Verdict classify(const Key& key) const;

    /**
     * Fused classify + mark in progress, one index probe: returns the
     * verdict @p key had and a ticket to its entry. On kNew the key is
     * now in progress, at the FIFO's newest end, and the client's
     * oldest live entry was evicted if the budget was full.
     */
    Claim claim(const Key& key);

    /**
     * Drop @p key if it is in progress (admission-queue overflow: the
     * packet was never executed, so a retransmit must be allowed to
     * execute later). Returns true if an entry was dropped.
     */
    bool unmark(const Key& key);

    /** Record the outgoing packet for @p key; later dups replay it.
     *  No-op on an evicted key. */
    void record_response(const Key& key,
                         const net::TraversalPacket& response);

    /**
     * Erase @p key entirely, even if completed. Used when a cached
     * response must not be replayed: a zero-progress kNotLocal bounce
     * is a routing decision, not a side effect, and replaying it from
     * the node that now *owns* the data (slab migrated here, or the
     * entry was absorbed at a cutover) would ping-pong the packet
     * between switch and accelerator forever. The caller re-executes
     * the visit under current routes instead.
     */
    void forget(const Key& key);

    /**
     * True if the entry at @p ticket (fresh from claim()) is a cached
     * zero-progress kNotLocal bounce — see forget().
     */
    bool cached_bounce(Ticket ticket) const;

    /**
     * forget() + claim() of the entry at @p ticket in place: the entry
     * becomes in progress again at the FIFO's newest end. The ticket
     * stays valid.
     */
    void restart(Ticket ticket);

    /** A copy of the cached response for @p key (empty unless
     *  Verdict::kCached). Only tests call this: observation hook. */
    std::optional<net::TraversalPacket>
    cached_response(const Key& key) const;

    /** Unpack the cached response at @p ticket (fresh from a kCached
     *  claim()) into @p out: the bytes copy_used() would write. */
    void copy_response(Ticket ticket, net::TraversalPacket& out);

    /**
     * Copy every entry of @p donor into this window (migration
     * cutover: the reconfiguration message carries the source's replay
     * digest, so the exactly-once domain moves with the data — a
     * retransmitted request that chases a migrated slab to its new
     * owner replays the cached response instead of re-executing).
     * Entries this window already holds are kept as-is. Donor entries
     * still executing are absorbed as in-progress and marked handed
     * off in @p donor, so the donor's eventual completion (or
     * admission drop) can be mirrored here via import_completion /
     * unmark. Deterministic: clients ascending, FIFO within a client.
     * Returns the number of entries copied.
     */
    std::size_t absorb_from(ReplayWindow& donor);

    /**
     * Complete an absorbed in-progress entry with a response that was
     * produced on another node. No-op unless @p key is held here and
     * still in progress; returns true if it completed the entry.
     */
    bool import_completion(const Key& key,
                           const net::TraversalPacket& response);

    /**
     * True exactly once after @p key was handed off by absorb_from and
     * has not been consumed yet; clears the mark. The executing node
     * calls this when the visit completes or is dropped, to know
     * whether other windows hold an absorbed copy needing an update.
     */
    bool consume_handoff(const Key& key)
    {
        return handed_off_.erase(key) > 0;
    }

    /** Live entries, all clients. */
    std::size_t size() const { return size_; }

    /** Index lookups so far: each walks one probe run. A delete
     *  needs none (a live slot knows its bucket). */
    std::uint64_t probes() const { return probes_; }

    /** Response bytes copied into and out of the window so far. */
    std::uint64_t copy_bytes() const { return copy_bytes_; }

    /** Heap blocks the window's storage allocated (per-client storage
     *  on a client's first visit, and a response block per re-layout;
     *  flat once every client's stride has reached its widest). */
    std::uint64_t allocations() const { return allocations_; }

    /** The widest response stride of any client's ring, in bytes (0
     *  before the first visit). */
    std::size_t stride_bytes() const;

  private:
    static constexpr std::uint32_t kNone = Ticket::kNone;

    enum class State : std::uint8_t { kFree, kInProgress, kDone };

    struct Slot
    {
        Key key;
        /** FIFO neighbours (older, newer); `next` also links the free
         *  list. */
        std::uint32_t prev = kNone;
        std::uint32_t next = kNone;
        /** Index bucket holding this slot while live. */
        std::uint32_t bucket = 0;
        State state = State::kFree;
        /** Used sizes of the packed response (valid while kDone). */
        std::uint8_t spawns = 0;
        std::uint16_t scratch_bytes = 0;

        std::size_t
        packed_bytes() const
        {
            return net::packed_size(scratch_bytes, spawns);
        }
    };
    /** The used sizes fill the slot's padding. */
    static_assert(sizeof(Slot) == 40);

    /** Index bucket: the key's 32-bit hash and its slot (kNone =
     *  empty). */
    struct Bucket
    {
        std::uint32_t hash = 0;
        std::uint32_t slot = kNone;
    };

    /** One client's entries. */
    struct Ring
    {
        /** Reserved to the budget on creation: never reallocates. */
        std::vector<Slot> slots;
        /** Room for the budget at `stride` bytes per slot; slot s's
         *  packed response starts at s * stride and is valid while
         *  slots[s] is kDone. */
        std::unique_ptr<std::uint8_t[]> responses;
        std::size_t stride = 0;
        std::vector<Bucket> index;
        std::uint32_t head = kNone;  ///< oldest live slot
        std::uint32_t tail = kNone;  ///< newest live slot
        std::uint32_t free = kNone;  ///< released slots, via `next`
        std::uint32_t live = 0;

        /** Start of @p slot's packed response. */
        std::uint8_t*
        response(std::uint32_t slot) const
        {
            return responses.get() + slot * stride;
        }
    };

    /** @p client's ring, or nullptr if it has never had an entry. */
    const Ring*
    find_ring(ClientId client) const
    {
        return client < rings_.size() && !rings_[client].index.empty()
                   ? &rings_[client]
                   : nullptr;
    }
    Ring*
    find_ring(ClientId client)
    {
        return const_cast<Ring*>(std::as_const(*this).find_ring(client));
    }
    Ring& ring_for(ClientId client);

    static std::uint32_t hash(const Key& key);
    /** Bucket holding @p key, or the empty bucket ending its run. */
    std::uint32_t probe(const Ring& ring, const Key& key,
                        std::uint32_t hash) const;
    /** @p key's slot; kNone if absent. */
    std::uint32_t find_slot(const Ring& ring, const Key& key) const;
    /** Remove the live entry in @p slot (index, FIFO, free list).
     *  Returns the empty bucket that ended the backward shift. */
    std::uint32_t remove(Ring& ring, std::uint32_t slot);
    /** Mark @p slot done with a response of the given used sizes and
     *  return where its packed bytes go, first re-laying @p ring out
     *  at a wider stride if they do not fit. */
    std::uint8_t* store(Ring& ring, std::uint32_t slot,
                        std::size_t scratch_bytes, std::size_t spawns);
    /** Mark @p slot done with @p response, packed. */
    void complete(Ring& ring, std::uint32_t slot,
                  const net::TraversalPacket& response);
    /** Unpack @p slot's response into @p out; returns the bytes. */
    static std::size_t unpack(const Ring& ring, std::uint32_t slot,
                              net::TraversalPacket& out);
    void link_newest(Ring& ring, std::uint32_t slot);
    void unlink(Ring& ring, std::uint32_t slot);

    std::size_t capacity_;
    std::vector<Ring> rings_;  ///< by ClientId
    std::size_t size_ = 0;
    mutable std::uint64_t probes_ = 0;
    std::uint64_t copy_bytes_ = 0;
    std::uint64_t allocations_ = 0;
    /** In-progress visits absorbed elsewhere at a migration cutover;
     *  their completion must be mirrored to the absorbing windows. */
    std::unordered_set<Key, KeyHash> handed_off_;
};

}  // namespace pulse::accel

#endif  // PULSE_ACCEL_REPLAY_WINDOW_H
