#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "check/invariants.h"
#include "common/knobs.h"
#include "common/logging.h"

namespace pulse::sim {

EventQueue::EventQueue() : coalescing_(knobs::pooling_enabled()) {}

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
EventQueue::schedule_at(Time when, EventFn fn)
{
    PULSE_ASSERT(when >= now_,
                 "scheduling into the past (when=%lld now=%lld)",
                 static_cast<long long>(when),
                 static_cast<long long>(now_));
    const std::uint32_t slot = acquire_slot(std::move(fn));
    const std::uint64_t sequence = next_sequence_++;
    if (coalescing_) {
        ChainRef& ref = chains_[chain_index(when)];
        if (ref.when == when && ref.head != kNilSlot) {
            // An earlier event at this exact timestamp is still
            // heaped: append instead of paying a heap push. The
            // append's sequence exceeds every sequence already in the
            // chain (the counter is monotone), and any chain heaped
            // later for this timestamp starts at a yet higher
            // sequence, so FIFO order among equal timestamps is
            // preserved exactly.
            chain_next_[ref.tail] = slot;
            ref.tail = slot;
            coalesced_++;
        } else {
            ref = ChainRef{when, slot, slot};
            heap_.push(Entry{when, sequence, slot});
        }
    } else {
        heap_.push(Entry{when, sequence, slot});
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
        // top() is const and priority_queue has no "pop into a value",
        // but the entry is 24 bytes of plain data — copy it, then move
        // the callback out of its pool slot.
        const Entry entry = heap_.top();
        heap_.pop();
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
           (!heap_.empty() && heap_.top().when <= deadline)) {
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
EventQueue::set_coalescing(bool enabled)
{
    coalescing_ = enabled;
    // Drop cached chain refs: after a disable/enable cycle they could
    // name slots that have since been recycled.
    chains_.fill(ChainRef{});
}

EventQueue::QuiesceState
EventQueue::quiesce_state() const
{
    PULSE_ASSERT(pending_ == 0,
                 "checkpoint requires a quiesced queue (%zu pending)",
                 pending_);
    return QuiesceState{now_, next_sequence_, executed_};
}

void
EventQueue::restore_quiesce(const QuiesceState& state)
{
    PULSE_ASSERT(pending_ == 0,
                 "restore requires a quiesced queue (%zu pending)",
                 pending_);
    PULSE_ASSERT(state.now >= now_,
                 "restore would move the clock backwards");
    now_ = state.now;
    next_sequence_ = state.scheduled;
    executed_ = state.executed;
    chains_.fill(ChainRef{});
    drain_next_ = kNilSlot;
}

}  // namespace pulse::sim
