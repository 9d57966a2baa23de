#include "accel/replay_window.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/logging.h"

namespace pulse::accel {

namespace {

/** Response stride for a @p bytes-long packed response: rounded up to
 *  a cache line, never wider than the whole packet. */
std::size_t
stride_for(std::size_t bytes)
{
    return std::min((bytes + 63) / 64 * 64, sizeof(net::TraversalPacket));
}

// cached_bounce() reads these two fields at their offsets in the packed
// header.
static_assert(offsetof(net::TraversalPacket, iterations_done) +
                  sizeof(std::uint64_t) <=
              offsetof(net::TraversalPacket, scratch));

}  // namespace

ReplayWindow::ReplayWindow(std::size_t per_client_entries)
    : capacity_(per_client_entries)
{
    PULSE_ASSERT(capacity_ > 0 && capacity_ < (std::size_t{1} << 30),
                 "replay window budget %zu out of range", capacity_);
}

std::uint32_t
ReplayWindow::hash(const Key& key)
{
    // splitmix64 finalizer over seq and visit (the client is implicit:
    // each client has its own index).
    std::uint64_t x = key.id.seq ^ (key.visit * 0x9e3779b97f4a7c15ull);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return static_cast<std::uint32_t>(x ^ (x >> 31));
}

ReplayWindow::Ring&
ReplayWindow::ring_for(ClientId client)
{
    if (client >= rings_.size()) {
        rings_.resize(client + 1);
        allocations_++;
    }
    Ring& ring = rings_[client];
    if (ring.index.empty()) {
        // Load factor <= 1/2, so every probe run ends at an empty
        // bucket within a few steps.
        ring.slots.reserve(capacity_);
        ring.stride = stride_for(net::packed_size(0, 0));
        ring.responses = std::make_unique_for_overwrite<std::uint8_t[]>(
            capacity_ * ring.stride);
        ring.index.resize(std::bit_ceil(2 * capacity_));
        allocations_ += 3;
    }
    return ring;
}

std::uint32_t
ReplayWindow::probe(const Ring& ring, const Key& key,
                    std::uint32_t hash) const
{
    const std::uint32_t mask =
        static_cast<std::uint32_t>(ring.index.size()) - 1;
    probes_++;
    for (std::uint32_t at = hash & mask;; at = (at + 1) & mask) {
        const Bucket& bucket = ring.index[at];
        if (bucket.slot == kNone ||
            (bucket.hash == hash && ring.slots[bucket.slot].key == key)) {
            return at;
        }
    }
}

std::uint32_t
ReplayWindow::find_slot(const Ring& ring, const Key& key) const
{
    return ring.index[probe(ring, key, hash(key))].slot;
}

void
ReplayWindow::link_newest(Ring& ring, std::uint32_t slot)
{
    Slot& entry = ring.slots[slot];
    entry.prev = ring.tail;
    entry.next = kNone;
    if (ring.tail != kNone) {
        ring.slots[ring.tail].next = slot;
    } else {
        ring.head = slot;
    }
    ring.tail = slot;
}

void
ReplayWindow::unlink(Ring& ring, std::uint32_t slot)
{
    const Slot& entry = ring.slots[slot];
    if (entry.prev != kNone) {
        ring.slots[entry.prev].next = entry.next;
    } else {
        ring.head = entry.next;
    }
    if (entry.next != kNone) {
        ring.slots[entry.next].prev = entry.prev;
    } else {
        ring.tail = entry.prev;
    }
}

std::uint32_t
ReplayWindow::remove(Ring& ring, std::uint32_t slot)
{
    Slot& entry = ring.slots[slot];
    // Backward-shift delete: pull later members of the probe run into
    // the hole so every key stays reachable from its home bucket
    // without crossing an empty one.
    const std::uint32_t mask =
        static_cast<std::uint32_t>(ring.index.size()) - 1;
    std::uint32_t hole = entry.bucket;
    std::uint32_t at = (hole + 1) & mask;
    for (; ring.index[at].slot != kNone; at = (at + 1) & mask) {
        const Bucket bucket = ring.index[at];
        const std::uint32_t home = bucket.hash & mask;
        if (((at - home) & mask) >= ((at - hole) & mask)) {
            ring.index[hole] = bucket;
            ring.slots[bucket.slot].bucket = hole;
            hole = at;
        }
    }
    ring.index[hole].slot = kNone;
    unlink(ring, slot);
    entry.state = State::kFree;
    entry.next = ring.free;
    ring.free = slot;
    ring.live--;
    size_--;
    return at;
}

std::uint8_t*
ReplayWindow::store(Ring& ring, std::uint32_t slot,
                    std::size_t scratch_bytes, std::size_t spawns)
{
    if (const std::size_t bytes = net::packed_size(scratch_bytes, spawns);
        bytes > ring.stride) {
        // Re-lay the ring out at the wider stride. The new block is
        // left unwritten past the entries copied into it.
        const std::size_t stride = stride_for(bytes);
        auto responses =
            std::make_unique_for_overwrite<std::uint8_t[]>(capacity_ *
                                                           stride);
        for (std::uint32_t s = 0; s < ring.slots.size(); s++) {
            if (ring.slots[s].state == State::kDone) {
                std::memcpy(responses.get() + s * stride, ring.response(s),
                            ring.slots[s].packed_bytes());
            }
        }
        ring.responses = std::move(responses);
        ring.stride = stride;
        allocations_++;
    }
    Slot& entry = ring.slots[slot];
    entry.state = State::kDone;
    entry.spawns = static_cast<std::uint8_t>(spawns);
    entry.scratch_bytes = static_cast<std::uint16_t>(scratch_bytes);
    return ring.response(slot);
}

void
ReplayWindow::complete(Ring& ring, std::uint32_t slot,
                       const net::TraversalPacket& response)
{
    copy_bytes_ += net::pack(store(ring, slot, response.scratch.size(),
                                   response.spawns.size()),
                             response);
}

std::size_t
ReplayWindow::unpack(const Ring& ring, std::uint32_t slot,
                     net::TraversalPacket& out)
{
    const Slot& entry = ring.slots[slot];
    return net::unpack(out, ring.response(slot), entry.scratch_bytes,
                       entry.spawns);
}

ReplayWindow::Verdict
ReplayWindow::classify(const Key& key) const
{
    const Ring* ring = find_ring(key.id.client);
    if (ring == nullptr) {
        return Verdict::kNew;
    }
    const std::uint32_t slot = find_slot(*ring, key);
    if (slot == kNone) {
        return Verdict::kNew;
    }
    return ring->slots[slot].state == State::kDone ? Verdict::kCached
                                                   : Verdict::kInProgress;
}

ReplayWindow::Claim
ReplayWindow::claim(const Key& key)
{
    Ring& ring = ring_for(key.id.client);
    const std::uint32_t h = hash(key);
    std::uint32_t at = probe(ring, key, h);
    if (const std::uint32_t held = ring.index[at].slot; held != kNone) {
        return {ring.slots[held].state == State::kDone
                    ? Verdict::kCached
                    : Verdict::kInProgress,
                {key.id.client, held}};
    }
    if (ring.live >= capacity_) {
        // FIFO like the real dedup SRAM: the oldest live visit leaves
        // first. An entry evicted while a duplicate is still in flight
        // merely loses suppression for that duplicate — correctness
        // degrades to at-least-once only when the window is sized far
        // below the client's in-flight budget.
        if (remove(ring, ring.head) == at) {
            // The shift ran through this key's own probe run, which
            // may now end at an earlier empty bucket.
            at = probe(ring, key, h);
        }
    }
    std::uint32_t slot = ring.free;
    if (slot != kNone) {
        ring.free = ring.slots[slot].next;
    } else {
        slot = static_cast<std::uint32_t>(ring.slots.size());
        ring.slots.emplace_back();
    }
    Slot& entry = ring.slots[slot];
    entry.key = key;
    entry.bucket = at;
    entry.state = State::kInProgress;
    link_newest(ring, slot);
    ring.index[at] = {h, slot};
    ring.live++;
    size_++;
    return {Verdict::kNew, {key.id.client, slot}};
}

bool
ReplayWindow::unmark(const Key& key)
{
    Ring* ring = find_ring(key.id.client);
    if (ring == nullptr) {
        return false;
    }
    const std::uint32_t slot = find_slot(*ring, key);
    if (slot == kNone || ring->slots[slot].state != State::kInProgress) {
        return false;
    }
    remove(*ring, slot);
    return true;
}

void
ReplayWindow::forget(const Key& key)
{
    Ring* ring = find_ring(key.id.client);
    if (ring == nullptr) {
        return;
    }
    if (const std::uint32_t slot = find_slot(*ring, key);
        slot != kNone) {
        remove(*ring, slot);
    }
}

void
ReplayWindow::record_response(const Key& key,
                              const net::TraversalPacket& response)
{
    Ring* ring = find_ring(key.id.client);
    if (ring == nullptr) {
        return;
    }
    const std::uint32_t slot = find_slot(*ring, key);
    if (slot == kNone) {
        // The entry was evicted mid-execution; nothing to record.
        return;
    }
    complete(*ring, slot, response);
}

bool
ReplayWindow::import_completion(const Key& key,
                                const net::TraversalPacket& response)
{
    Ring* ring = find_ring(key.id.client);
    if (ring == nullptr) {
        return false;
    }
    const std::uint32_t slot = find_slot(*ring, key);
    if (slot == kNone || ring->slots[slot].state != State::kInProgress) {
        return false;  // not absorbed here, or already completed
    }
    complete(*ring, slot, response);
    return true;
}

bool
ReplayWindow::cached_bounce(Ticket ticket) const
{
    const Ring& ring = rings_[ticket.client];
    const Slot& entry = ring.slots[ticket.slot];
    if (entry.state != State::kDone) {
        return false;
    }
    const std::uint8_t* header = ring.response(ticket.slot);
    isa::TraversalStatus status;
    std::uint64_t iterations_done = 0;
    std::memcpy(&status,
                header + offsetof(net::TraversalPacket, status),
                sizeof status);
    std::memcpy(&iterations_done,
                header + offsetof(net::TraversalPacket, iterations_done),
                sizeof iterations_done);
    return status == isa::TraversalStatus::kNotLocal &&
           iterations_done == entry.key.visit;
}

void
ReplayWindow::restart(Ticket ticket)
{
    Ring& ring = rings_[ticket.client];
    ring.slots[ticket.slot].state = State::kInProgress;
    unlink(ring, ticket.slot);
    link_newest(ring, ticket.slot);
}

std::optional<net::TraversalPacket>
ReplayWindow::cached_response(const Key& key) const
{
    const Ring* ring = find_ring(key.id.client);
    if (ring == nullptr) {
        return std::nullopt;
    }
    const std::uint32_t slot = find_slot(*ring, key);
    if (slot == kNone || ring->slots[slot].state != State::kDone) {
        return std::nullopt;
    }
    net::TraversalPacket response;
    unpack(*ring, slot, response);
    return response;
}

void
ReplayWindow::copy_response(Ticket ticket, net::TraversalPacket& out)
{
    copy_bytes_ += unpack(rings_[ticket.client], ticket.slot, out);
}

std::size_t
ReplayWindow::stride_bytes() const
{
    std::size_t widest = 0;
    for (const Ring& ring : rings_) {
        widest = std::max(widest, ring.stride);
    }
    return widest;
}

std::size_t
ReplayWindow::absorb_from(ReplayWindow& donor)
{
    PULSE_ASSERT(&donor != this, "a window cannot absorb itself");
    // Deterministic absorption order: clients ascending, each
    // client's FIFO oldest first.
    std::size_t copied = 0;
    for (const Ring& from : donor.rings_) {
        for (std::uint32_t slot = from.head; slot != kNone;
             slot = from.slots[slot].next) {
            const Slot& entry = from.slots[slot];
            const Claim claimed = claim(entry.key);
            if (claimed.verdict != Verdict::kNew) {
                continue;  // already here from an earlier handoff
            }
            copied++;
            if (entry.state == State::kDone) {
                // The packed bytes copy as they are.
                const std::size_t bytes = entry.packed_bytes();
                std::memcpy(store(rings_[claimed.ticket.client],
                                  claimed.ticket.slot, entry.scratch_bytes,
                                  entry.spawns),
                            from.response(slot), bytes);
                copy_bytes_ += bytes;
            } else {
                // Still executing at the donor: remember to mirror the
                // eventual response (or admission drop) to the windows
                // holding the absorbed copy, so a later retransmit is
                // replayed there instead of suppressed forever.
                donor.handed_off_.insert(entry.key);
            }
        }
    }
    return copied;
}

}  // namespace pulse::accel
