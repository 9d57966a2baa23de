/**
 * @file
 * Discrete-event simulation core.
 *
 * Every timed component in pulse (links, switch, accelerator pipelines,
 * CPU models) schedules callbacks on a shared EventQueue. Events at equal
 * timestamps execute in FIFO insertion order, which keeps simulations
 * deterministic for a given seed and schedule.
 *
 * Hot-path layout: a 4-ary heap orders 24-byte plain-data entries
 * {when, sequence, slot}; the callbacks themselves live in a pooled
 * slot array and never move while queued. Heap sift operations
 * therefore shuffle trivially-copyable entries instead of type-erased
 * callables, and a drained slot is recycled through a free list — so
 * steady-state scheduling performs no allocation at all. The 4-ary
 * shape halves the tree depth of a binary heap; a node's four children
 * sit in 96 contiguous bytes, so each sift-down level costs about one
 * cache line. Entries are ordered strictly by (when, sequence), and
 * sequences are unique, so the pop order is the same as any other
 * correct priority queue's. Callbacks are InlineFunction (see
 * inline_function.h): capture state is stored inline, with oversized
 * captures rejected at compile time rather than silently
 * heap-allocated.
 *
 * Same-timestamp batching: bursty components (links draining a busy
 * period, switch ports, DRAM channels, the accelerator's net-stack
 * stages) frequently schedule many events at one identical timestamp.
 * Instead of paying a heap push/pop per event, schedule_at() chains
 * such events onto the pending event already heaped at that timestamp
 * (via a small direct-mapped timestamp cache) and step() drains the
 * chain one event per call. Execution order is provably unchanged:
 * chain appends carry strictly increasing sequence numbers, chains for
 * one timestamp occupy disjoint, heap-ordered sequence ranges, and the
 * cache entry is invalidated when its chain's head is popped so events
 * scheduled *during* a drain start a fresh (later) chain.
 *
 * Cancellation: schedule_at() returns an EventId (slot + generation,
 * the PacketHandle idiom), and cancel() turns the pending event into a
 * tombstone: its closure is destroyed at once and it leaves pending(),
 * but its slot stays linked where it is. step() and run_until() discard
 * tombstones they reach without moving the clock. Once tombstones
 * outnumber live events, compact() rebuilds the heap in bulk: it
 * unlinks every tombstone, drops entries whose whole chain was
 * cancelled, hands a cancelled chain head's entry to its first live
 * successor (keeping the entry's (when, sequence) key, which still
 * precedes every later chain at that timestamp) and re-heapifies. Keys
 * are never reused, so the pop order of the live events is exactly the
 * order they would have had without the cancelled ones.
 */
#ifndef PULSE_SIM_EVENT_QUEUE_H
#define PULSE_SIM_EVENT_QUEUE_H

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/serial.h"
#include "common/units.h"
#include "sim/inline_function.h"

namespace pulse::check {
class InvariantRegistry;
}

namespace pulse::sim {

/**
 * Inline capture budget for event callbacks, in bytes. Traversal
 * packets travel as 4-byte net::PacketHandles, so no capture holds a
 * packet or a scratch pad; captures are pointers, ids and small
 * records such as the offload engine's completion thunk
 * [this, key, Completion] (88 bytes). 112 bytes plus InlineFunction's
 * two function pointers makes an EventFn exactly two cache lines. Growing a capture
 * past this is a compile-time error at the schedule site — shrink the
 * capture (hand over a handle) rather than growing every event slot.
 */
inline constexpr std::size_t kEventInlineCapacity = 112;

/** Callback executed when an event fires. */
using EventFn = InlineFunction<kEventInlineCapacity>;

static_assert(sizeof(EventFn) <= 128,
              "an event slot must stay within two cache lines");

/**
 * Names one scheduled event for EventQueue::cancel(). A default id
 * names no event; an id whose event already ran or was cancelled is
 * stale, and cancelling it does nothing.
 */
struct EventId
{
    std::uint32_t slot = 0xFFFFFFFFu;
    std::uint32_t generation = 0;
};

/**
 * Time-ordered event queue with a monotonically advancing clock: a
 * calendar-free 4-ary heap, adequate for the rack-scale models here
 * (tens of components, millions of events).
 */
class EventQueue
{
  public:
    EventQueue() = default;
    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    /** Current simulated time. */
    Time now() const { return now_; }

    /** Schedule @p fn to run at absolute time @p when (>= now). */
    EventId schedule_at(Time when, EventFn fn);

    /** Schedule @p fn to run @p delay after the current time. */
    EventId schedule_after(Time delay, EventFn fn);

    /**
     * Cancel the pending event @p id: its closure is destroyed now and
     * it never runs. Returns false, doing nothing, when @p id is stale
     * (the event ran, is running, or was cancelled) or default.
     */
    bool cancel(EventId id);

    /** Number of pending (live, uncancelled) events. */
    std::size_t pending() const { return pending_; }

    /** True when no live events remain. */
    bool empty() const { return pending_ == 0; }

    /**
     * Execute the earliest pending event, advancing the clock to its
     * timestamp. Returns false when the queue is empty.
     */
    bool step();

    /** Run until the queue drains. Returns the number of events run. */
    std::uint64_t run();

    /**
     * Run until the clock would pass @p deadline; events at exactly
     * @p deadline still execute. Returns the number of events run.
     *
     * Clock contract: on return now() == max(now(), @p deadline) even
     * when the queue drains before the deadline (or was empty to begin
     * with). Draining must not leave the clock at the last event's
     * timestamp: fixed-interval measurement windows (bandwidth over a
     * window, periodic fault scripts, back-to-back run_until calls)
     * rely on every window advancing the clock by its full span, and a
     * subsequent schedule_after() must anchor at the window end, not
     * mid-window. Events already at timestamps beyond the deadline
     * stay pending and now() stays at @p deadline — strictly behind
     * heap_.front().when — so no event ever fires in its past.
     * Only tests call this: observation hook.
     */
    std::uint64_t run_until(Time deadline);

    /** Total events executed since construction. */
    std::uint64_t events_executed() const { return executed_; }

    /** Total events scheduled since construction. */
    std::uint64_t events_scheduled() const { return next_sequence_; }

    /** High-water mark of simultaneously pending events. */
    std::size_t peak_pending() const { return peak_pending_; }

    /**
     * Callback slots ever allocated (pool high-water). Steady state
     * allocates nothing: slots recycle through the free list, so this
     * converges to the peak of pending() plus tombstones (at most
     * twice peak_pending()) and stays there.
     */
    std::size_t pool_slots() const { return pool_.size(); }

    /**
     * Events that joined an already-heaped same-timestamp chain
     * instead of paying their own heap push/pop.
     */
    std::uint64_t events_coalesced() const { return coalesced_; }

    /** Heap pops that drained a multi-event chain. */
    std::uint64_t batches_drained() const { return batches_; }

    /** Cancelled events whose slots are not yet reclaimed. */
    std::size_t tombstones() const { return tombstones_; }

    /** Bulk heap rebuilds that reclaimed tombstones. */
    std::uint64_t compactions() const { return compactions_; }

    /**
     * Attach an invariant registry (nullptr detaches). When present,
     * step() cross-checks clock monotonicity against the popped entry
     * — a safety net under the heap ordering itself, which the
     * schedule_at() precondition cannot cover.
     */
    void set_invariants(check::InvariantRegistry* registry)
    {
        invariants_ = registry;
    }

    /**
     * Checkpoint support (core/checkpoint.cc): the clock and the
     * schedule/execute counters, so continuation-run telemetry is
     * bit-identical to the uninterrupted run. Only a *quiesced* queue
     * — no pending events — can be captured or restored: in-flight
     * callbacks are type-erased closures over live component state and
     * are deliberately not serializable (tombstones are reclaimed
     * first). Restoring rejects a clock behind the live one.
     */
    void checkpoint(StateIo& io);

  private:
    /**
     * Heap entry: plain data only. The callback lives in pool_[slot]
     * and is moved out exactly once, when the entry is popped — the
     * heap's sift operations never touch callable state. `slot` heads
     * a chain of same-timestamp events linked through chain_next_; an
     * empty pool_ slot in a chain is a tombstone.
     */
    struct Entry
    {
        Time when;
        std::uint64_t sequence;  // FIFO tiebreak for equal timestamps
        std::uint32_t slot;
    };

    /**
     * Heap order, strictly by (when, sequence), as one unsigned
     * 128-bit key: schedule_at rejects negative times, so `when`
     * orders the same as an unsigned high word.
     */
    using Key = unsigned __int128;

    static Key
    key(const Entry& entry)
    {
        return (static_cast<Key>(static_cast<std::uint64_t>(entry.when))
                << 64) |
               entry.sequence;
    }

    static constexpr std::size_t kArity = 4;

    static constexpr std::uint32_t kNilSlot = 0xFFFFFFFFu;
    static constexpr std::size_t kChainCacheSize = 64;

    /** Open chain per cached timestamp (direct-mapped). */
    struct ChainRef
    {
        Time when = -1;  // schedule_at rejects negative times
        std::uint32_t head = kNilSlot;
        std::uint32_t tail = kNilSlot;
    };

    static std::size_t
    chain_index(Time when)
    {
        return static_cast<std::size_t>(
            (static_cast<std::uint64_t>(when) * 0x9E3779B97F4A7C15ull) >>
            58);
    }

    std::uint32_t acquire_slot(EventFn&& fn);
    void release_slot(std::uint32_t slot);
    void heap_push(const Entry& entry);
    Entry heap_pop();
    /** Place @p entry at hole @p i and sift it down. */
    void sift_down(std::size_t i, Entry entry);

    /**
     * Discard the tombstones in front of the next live event (never
     * moving the clock). Returns true when a live event is next: at
     * drain_next_, else at heap_.front().slot.
     */
    bool settle();

    /** Reclaim the tombstones leading the chain at @p slot; returns
     *  its first live slot (kNilSlot if none). */
    std::uint32_t skip_tombstones(std::uint32_t slot);

    /** Unlink and reclaim every tombstone of the chain at @p slot;
     *  returns its first live slot (kNilSlot if none). */
    std::uint32_t prune_chain(std::uint32_t slot);

    /** Reclaim every tombstone and rebuild the heap (see file doc). */
    void compact();

    /** 4-ary min-heap: the children of i are kArity*i+1 ..
     *  kArity*i+kArity. */
    std::vector<Entry> heap_;
    std::vector<EventFn> pool_;
    /** Per slot; bumped when its event runs or is cancelled, which
     *  makes every EventId naming that event stale. */
    std::vector<std::uint32_t> generation_;
    /** Next slot in the same-timestamp chain (kNilSlot = end). */
    std::vector<std::uint32_t> chain_next_;
    std::vector<std::uint32_t> free_slots_;
    std::array<ChainRef, kChainCacheSize> chains_;
    Time now_ = 0;
    check::InvariantRegistry* invariants_ = nullptr;
    std::uint64_t next_sequence_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t pending_ = 0;
    std::size_t peak_pending_ = 0;
    std::uint64_t coalesced_ = 0;
    std::uint64_t batches_ = 0;
    std::uint64_t compactions_ = 0;
    std::size_t tombstones_ = 0;
    /** Chain tail still to drain from the last popped heap entry. */
    std::uint32_t drain_next_ = kNilSlot;
};

}  // namespace pulse::sim

#endif  // PULSE_SIM_EVENT_QUEUE_H
