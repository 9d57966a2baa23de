#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "check/invariants.h"
#include "common/logging.h"

namespace pulse::sim {

std::uint32_t
EventQueue::acquire_slot(EventFn&& fn)
{
    std::uint32_t slot;
    if (!free_slots_.empty()) {
        slot = free_slots_.back();
        free_slots_.pop_back();
        pool_[slot] = std::move(fn);
        chain_next_[slot] = kNilSlot;
    } else {
        slot = static_cast<std::uint32_t>(pool_.size());
        pool_.push_back(std::move(fn));
        chain_next_.push_back(kNilSlot);
    }
    return slot;
}

void
EventQueue::heap_push(const Entry& entry)
{
    std::size_t i = heap_.size();
    heap_.push_back(entry);
    while (i > 0) {
        const std::size_t parent = (i - 1) / kArity;
        if (key(entry) >= key(heap_[parent])) {
            break;
        }
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = entry;
}

EventQueue::Entry
EventQueue::heap_pop()
{
    const Entry top = heap_.front();
    const Entry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) {
        return top;
    }
    // Sift the former last entry down from the root: move the
    // earliest child up until `last` precedes all children. The
    // earliest child is picked by comparing packed 128-bit keys, which
    // compiles to conditional moves: on a deep heap the branchy
    // (when, sequence) comparison mispredicts about once per child.
    std::size_t i = 0;
    for (;;) {
        const std::size_t first = kArity * i + 1;
        if (first >= n) {
            break;
        }
        const std::size_t end = std::min(first + kArity, n);
        std::size_t best = first;
        Key best_key = key(heap_[first]);
        for (std::size_t c = first + 1; c < end; c++) {
            const Key k = key(heap_[c]);
            const bool earlier = k < best_key;
            best = earlier ? c : best;
            best_key = earlier ? k : best_key;
        }
        if (best_key >= key(last)) {
            break;
        }
        heap_[i] = heap_[best];
        i = best;
    }
    heap_[i] = last;
    return top;
}

void
EventQueue::schedule_at(Time when, EventFn fn)
{
    PULSE_ASSERT(when >= now_,
                 "scheduling into the past (when=%lld now=%lld)",
                 static_cast<long long>(when),
                 static_cast<long long>(now_));
    const std::uint32_t slot = acquire_slot(std::move(fn));
    const std::uint64_t sequence = next_sequence_++;
    ChainRef& ref = chains_[chain_index(when)];
    if (ref.when == when && ref.head != kNilSlot) {
        // An earlier event at this exact timestamp is still heaped:
        // append instead of paying a heap push. The append's sequence
        // exceeds every sequence already in the chain (the counter is
        // monotone), and any chain heaped later for this timestamp
        // starts at a yet higher sequence, so FIFO order among equal
        // timestamps is preserved exactly.
        chain_next_[ref.tail] = slot;
        ref.tail = slot;
        coalesced_++;
    } else {
        ref = ChainRef{when, slot, slot};
        heap_push(Entry{when, sequence, slot});
    }
    pending_++;
    peak_pending_ = std::max(peak_pending_, pending_);
}

void
EventQueue::schedule_after(Time delay, EventFn fn)
{
    PULSE_ASSERT(delay >= 0, "negative delay %lld",
                 static_cast<long long>(delay));
    schedule_at(now_ + delay, std::move(fn));
}

bool
EventQueue::step()
{
    std::uint32_t slot;
    if (drain_next_ != kNilSlot) {
        // Continue draining the chain popped earlier; every event in
        // it shares the already-installed clock value.
        slot = drain_next_;
    } else {
        if (heap_.empty()) {
            return false;
        }
        // The entry is 24 bytes of plain data; the callback is moved
        // out of its pool slot below.
        const Entry entry = heap_pop();
        if (invariants_ && entry.when < now_) {
            invariants_->report(check::Violation{
                .kind = check::InvariantKind::kClockMonotonicity,
                .when = now_,
                .component = "sim.event_queue",
                .message = "event at t=" + std::to_string(entry.when) +
                           " fired behind the clock (seq=" +
                           std::to_string(entry.sequence) + ")"});
        }
        // Close the chain before running anything: events scheduled at
        // this same timestamp during the drain must start a fresh
        // chain (heaped behind the one being drained). A slot is only
        // recycled after its chain element executes, so head-slot
        // equality uniquely identifies this chain's cache entry.
        ChainRef& ref = chains_[chain_index(entry.when)];
        if (ref.head == entry.slot) {
            ref = ChainRef{};
        }
        now_ = entry.when;
        if (chain_next_[entry.slot] != kNilSlot) {
            batches_++;
        }
        slot = entry.slot;
    }
    drain_next_ = chain_next_[slot];
    executed_++;
    pending_--;
    // The slot returns to the free list *before* the callback runs so
    // the callback may schedule into it; the local `fn` is unaffected
    // if pool_ reallocates meanwhile.
    EventFn fn = std::move(pool_[slot]);
    chain_next_[slot] = kNilSlot;
    free_slots_.push_back(slot);
    fn();
    return true;
}

std::uint64_t
EventQueue::run()
{
    std::uint64_t n = 0;
    while (step()) {
        n++;
    }
    return n;
}

std::uint64_t
EventQueue::run_until(Time deadline)
{
    std::uint64_t n = 0;
    // A chain mid-drain is at now_ <= deadline by construction, so it
    // never outruns the deadline check.
    while (drain_next_ != kNilSlot ||
           (!heap_.empty() && heap_.front().when <= deadline)) {
        step();
        n++;
    }
    if (now_ < deadline) {
        now_ = deadline;
    }
    return n;
}

bool
EventQueue::run_while_pending(const std::function<bool()>& predicate)
{
    while (!predicate()) {
        if (!step()) {
            return false;
        }
    }
    return true;
}

void
EventQueue::checkpoint(StateIo& io)
{
    PULSE_ASSERT(pending_ == 0,
                 "checkpoint requires a quiesced queue (%zu pending)",
                 pending_);
    Time now = now_;
    io.i64(now);
    if (now < now_) {
        io.fail("restore would move the clock backwards");
    }
    io.u64(next_sequence_);
    io.u64(executed_);
    if (io.reading()) {
        now_ = now;
        chains_.fill(ChainRef{});
        drain_next_ = kNilSlot;
    }
}

}  // namespace pulse::sim
