#include "placement/slab_copier.h"

#include <algorithm>

#include "common/logging.h"

namespace pulse::placement {

namespace {
/** Ack packets carry a chunk id + checksum: a NIC-header-sized frame. */
constexpr Bytes kAckBytes = 64;
}  // namespace

SlabCopier::SlabCopier(sim::EventQueue& queue, net::Network& network,
                       mem::GlobalMemory& memory,
                       mem::ClusterAllocator& allocator,
                       std::vector<mem::ChannelSet*> channels,
                       const PlacementConfig& config, CopyStats& stats)
    : queue_(queue), network_(network), memory_(memory),
      allocator_(allocator), channels_(std::move(channels)),
      chunk_bytes_(config.copy_chunk_bytes), window_(config.copy_window),
      rto_(config.copy_rto), max_retries_(config.copy_max_retries),
      stats_(stats)
{
    PULSE_ASSERT(chunk_bytes_ > 0, "zero copy chunk");
    PULSE_ASSERT(window_ > 0, "zero copy window");
}

Bytes
SlabCopier::chunk_length(std::size_t chunk) const
{
    const Bytes offset = static_cast<Bytes>(chunk) * chunk_bytes_;
    return std::min(chunk_bytes_, active_->length - offset);
}

void
SlabCopier::start(VirtAddr va_base, Bytes length, NodeId src,
                  NodeId dst, Bytes dst_phys,
                  std::function<void(bool)> done)
{
    PULSE_ASSERT(!active_ && length > 0, "copier busy or empty copy");
    const std::size_t chunks = static_cast<std::size_t>(
        (length + chunk_bytes_ - 1) / chunk_bytes_);
    active_.emplace();
    active_->va_base = va_base;
    active_->length = length;
    active_->src = src;
    active_->dst = dst;
    active_->dst_phys = dst_phys;
    active_->acked.assign(chunks, false);
    active_->rto.assign(chunks, sim::EventId{});
    active_->done = std::move(done);

    // Open the selective-repeat window.
    const std::size_t window = std::min<std::size_t>(window_, chunks);
    for (std::size_t i = 0; i < window; i++) {
        send_chunk(active_->next_unsent++, /*retransmit=*/false);
    }
}

void
SlabCopier::send_chunk(std::size_t chunk, bool retransmit)
{
    Active& copy = *active_;
    const Bytes len = chunk_length(chunk);
    stats_.chunks_sent.increment();
    stats_.bytes_copied.increment(len);
    if (retransmit) {
        stats_.chunks_retransmitted.increment();
    }
    // The source DMA engine reads the chunk through the node's DRAM
    // channels (copy traffic contends with traversal loads), then the
    // chunk crosses the fabric as an ordinary message — the fault
    // plane may drop/duplicate/delay it like any other.
    const Time now = queue_.now();
    const Time read_done = channels_[copy.src]->access(now, len);
    const std::uint64_t gen = generation_;
    const NodeId src = copy.src;
    const NodeId dst = copy.dst;
    queue_.schedule_at(read_done, [this, gen, chunk, src, dst, len] {
        if (generation_ != gen) {
            return;  // copy ended while the read was in flight
        }
        network_.send_message(net::EndpointAddr::mem_node(src),
                              net::EndpointAddr::mem_node(dst), len,
                              [this, gen, chunk] {
                                  on_chunk_delivered(gen, chunk);
                              });
    });
    arm_rto(chunk);
}

void
SlabCopier::on_chunk_delivered(std::uint64_t generation,
                               std::size_t chunk)
{
    if (generation != generation_ || !active_) {
        return;  // stale chunk of a finished copy
    }
    Active& copy = *active_;
    // The destination DMA engine writes the chunk into the reserved
    // backing (timed only — the authoritative bytes land in finish()).
    // Duplicate deliveries re-ack: the previous ack may have been lost.
    channels_[copy.dst]->access(queue_.now(), chunk_length(chunk));
    network_.send_message(
        net::EndpointAddr::mem_node(copy.dst),
        net::EndpointAddr::mem_node(copy.src), kAckBytes,
        [this, generation, chunk] { on_ack(generation, chunk); });
}

void
SlabCopier::on_ack(std::uint64_t generation, std::size_t chunk)
{
    if (generation != generation_ || !active_) {
        return;
    }
    Active& copy = *active_;
    if (copy.acked[chunk]) {
        return;  // duplicate ack
    }
    copy.acked[chunk] = true;
    copy.acked_count++;
    queue_.cancel(copy.rto[chunk]);
    if (copy.acked_count == copy.acked.size()) {
        finish();
        return;
    }
    if (copy.next_unsent < copy.acked.size()) {
        send_chunk(copy.next_unsent++, /*retransmit=*/false);
    }
}

void
SlabCopier::arm_rto(std::size_t chunk)
{
    // Cancelled when the chunk is acked or the copy ends, so the timer
    // only fires for an unacked chunk of the copy in flight.
    active_->rto[chunk] = queue_.schedule_after(rto_, [this, chunk] {
        if (++active_->retries > max_retries_) {
            abort();
            return;
        }
        send_chunk(chunk, /*retransmit=*/true);
    });
}

SlabCopier::Active
SlabCopier::end_copy()
{
    Active copy = std::move(*active_);
    active_.reset();
    generation_++;  // quench stragglers
    for (const sim::EventId rto : copy.rto) {
        queue_.cancel(rto);
    }
    return copy;
}

void
SlabCopier::finish()
{
    Active copy = end_copy();

    // Functional copy in the same event: the placement-aware read pulls
    // the authoritative bytes from the current owner, so every store
    // that landed during the copy phase is included. This bumps the
    // destination's mutation counter, which automatically degrades the
    // golden oracle to weak checks for operations in flight across it.
    std::vector<std::uint8_t> bytes(copy.length);
    memory_.read(copy.va_base, bytes.data(), copy.length);
    memory_.node(copy.dst).write(copy.dst_phys, bytes.data(),
                                 copy.length);
    copy.done(true);
}

void
SlabCopier::abort()
{
    Active copy = end_copy();
    allocator_.free_backing(copy.dst, copy.dst_phys, copy.length);
    copy.done(false);
}

bool
route_flip_possible(const std::vector<mem::RangeTcam*>& tcams,
                    NodeId from, NodeId to, VirtAddr va_base,
                    Bytes length)
{
    return tcams[from]->can_punch(va_base, length) &&
           tcams[to]->size() < tcams[to]->capacity();
}

RouteFlip
flip_route(mem::AddressMap& map, net::SwitchTable& table,
           const std::vector<mem::RangeTcam*>& tcams, NodeId from,
           NodeId to, VirtAddr va_base, Bytes length, Bytes to_phys)
{
    if (!route_flip_possible(tcams, from, to, va_base, length)) {
        return RouteFlip::kRefused;
    }
    RouteFlip flip = RouteFlip::kRemapped;
    if (to == *map.home_node_for(va_base) &&
        to_phys == map.offset_in_region(va_base)) {
        // Back in its home frame: the overlay dissolves.
        map.clear_remap(va_base, length);
        flip = RouteFlip::kRehomed;
    } else {
        const bool remapped =
            map.install_remap(mem::Remap{va_base, length, to, to_phys});
        PULSE_ASSERT(remapped, "route flip remap rejected");
    }
    table.set_overlay(map.remaps());
    const bool punched = tcams[from]->punch(va_base, length);
    PULSE_ASSERT(punched, "pre-checked source TCAM punch failed");
    const bool installed = tcams[to]->insert_coalesce(mem::RangeEntry{
        va_base, length, to_phys, mem::Perm::kReadWrite});
    PULSE_ASSERT(installed, "pre-checked dest TCAM insert failed");
    return flip;
}

}  // namespace pulse::placement
