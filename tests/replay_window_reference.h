/**
 * @file
 * Reference oracle for tests/test_replay_window.cc: the replay window
 * as it was before the flat per-client storage, kept verbatim (a
 * node-based unordered_map of by-value entries plus a per-client
 * deque for FIFO eviction), only moved into its own namespace, made
 * header-only and put on the default allocator. The differential test drives it and
 * accel::ReplayWindow with the same operation sequences.
 */
#ifndef PULSE_TESTS_REPLAY_WINDOW_REFERENCE_H
#define PULSE_TESTS_REPLAY_WINDOW_REFERENCE_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/types.h"
#include "net/packet.h"

namespace pulse::accel::reference {


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

    /** @param per_client_entries FIFO budget per client (> 0). */
    explicit ReplayWindow(std::size_t per_client_entries)
        : capacity_(per_client_entries)
    {
    }

    /** Classify @p key without modifying the window. */
    Verdict
    classify(const Key& key) const
    {
        const auto it = entries_.find(key);
        if (it == entries_.end()) {
            return Verdict::kNew;
        }
        return it->second.done ? Verdict::kCached
                               : Verdict::kInProgress;
    }

    /** Begin tracking @p key as executing (evicts FIFO if needed). */
    void mark_in_progress(const Key& key);

    /**
     * Drop @p key without recording a response (admission-queue
     * overflow: the packet was never executed, so a retransmit must be
     * allowed to execute later).
     */
    void unmark(const Key& key);

    /** Record the outgoing packet for @p key; later dups replay it. */
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

    /** Cached response for @p key (nullptr unless Verdict::kCached). */
    const net::TraversalPacket* cached_response(const Key& key) const;

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
     * still in progress.
     */
    void import_completion(const Key& key,
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

    std::size_t size() const { return entries_.size(); }

  private:
    struct Entry
    {
        bool done = false;
        net::TraversalPacket response;
    };

    void evict_for(ClientId client);

    std::size_t capacity_;
    /**
     * Once the FIFO budget is reached, every visit is one insert plus
     * one eviction. Each Entry embeds its cached packet by value
     * (~0.9 KiB), one copy per visit; packets in flight live in the
     * network's PacketArena instead.
     */
    std::unordered_map<Key, Entry, KeyHash> entries_;
    /** Insertion order per client for FIFO eviction. */
    std::unordered_map<ClientId, std::deque<Key>> order_;
    /** In-progress visits absorbed elsewhere at a migration cutover;
     *  their completion must be mirrored to the absorbing windows. */
    std::unordered_set<Key, KeyHash> handed_off_;
};



inline void
ReplayWindow::evict_for(ClientId client)
{
    auto& order = order_[client];
    while (order.size() >= capacity_ && !order.empty()) {
        // FIFO like the real dedup SRAM: oldest visit leaves first. An
        // entry evicted while a duplicate is still in flight merely
        // loses suppression for that duplicate — correctness degrades
        // to at-least-once only when the window is sized far below the
        // client's in-flight budget.
        entries_.erase(order.front());
        order.pop_front();
    }
}

inline void
ReplayWindow::mark_in_progress(const Key& key)
{
    const auto [it, inserted] = entries_.try_emplace(key);
    if (!inserted) {
        return;
    }
    evict_for(key.id.client);
    order_[key.id.client].push_back(key);
}

inline void
ReplayWindow::unmark(const Key& key)
{
    const auto it = entries_.find(key);
    if (it == entries_.end() || it->second.done) {
        return;
    }
    entries_.erase(it);
    auto& order = order_[key.id.client];
    for (auto order_it = order.begin(); order_it != order.end();
         ++order_it) {
        if (*order_it == key) {
            order.erase(order_it);
            break;
        }
    }
}

inline void
ReplayWindow::forget(const Key& key)
{
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
        return;
    }
    entries_.erase(it);
    auto& order = order_[key.id.client];
    for (auto order_it = order.begin(); order_it != order.end();
         ++order_it) {
        if (*order_it == key) {
            order.erase(order_it);
            break;
        }
    }
}

inline void
ReplayWindow::record_response(const Key& key,
                              const net::TraversalPacket& response)
{
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
        // The entry was evicted mid-execution; nothing to record.
        return;
    }
    it->second.done = true;
    it->second.response = response;
}

inline std::size_t
ReplayWindow::absorb_from(ReplayWindow& donor)
{
    // Deterministic absorption order: unordered_map iteration varies
    // between runs, so walk clients ascending and each client's FIFO.
    std::vector<ClientId> clients;
    clients.reserve(donor.order_.size());
    for (const auto& [client, order] : donor.order_) {
        if (!order.empty()) {
            clients.push_back(client);
        }
    }
    std::sort(clients.begin(), clients.end());
    std::size_t copied = 0;
    for (const ClientId client : clients) {
        for (const Key& key : donor.order_.at(client)) {
            const auto donor_it = donor.entries_.find(key);
            if (donor_it == donor.entries_.end()) {
                continue;
            }
            const auto [it, inserted] =
                entries_.try_emplace(key, donor_it->second);
            if (!inserted) {
                continue;  // already here from an earlier handoff
            }
            evict_for(key.id.client);
            order_[key.id.client].push_back(key);
            copied++;
            if (!donor_it->second.done) {
                // Still executing at the donor: remember to mirror the
                // eventual response (or admission drop) to the windows
                // holding the absorbed copy, so a later retransmit is
                // replayed there instead of suppressed forever.
                donor.handed_off_.insert(key);
            }
        }
    }
    return copied;
}

inline void
ReplayWindow::import_completion(const Key& key,
                                const net::TraversalPacket& response)
{
    const auto it = entries_.find(key);
    if (it == entries_.end() || it->second.done) {
        return;  // not absorbed here, or already completed
    }
    it->second.done = true;
    it->second.response = response;
}

inline const net::TraversalPacket*
ReplayWindow::cached_response(const Key& key) const
{
    const auto it = entries_.find(key);
    if (it == entries_.end() || !it->second.done) {
        return nullptr;
    }
    return &it->second.response;
}

}  // namespace pulse::accel::reference

#endif  // PULSE_TESTS_REPLAY_WINDOW_REFERENCE_H
