#include "replication/replication_plane.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace pulse::replication {

namespace {
/** Replica backing keeps data-structure node alignment. */
constexpr Bytes kBackingAlign = 256;
}  // namespace

ReplicationPlane::ReplicationPlane(sim::EventQueue& queue,
                                   net::Network& network,
                                   mem::GlobalMemory& memory,
                                   mem::ClusterAllocator& allocator,
                                   std::vector<mem::RangeTcam*> tcams,
                                   std::vector<mem::ChannelSet*> channels,
                                   const ReplicationConfig& config,
                                   const placement::PlacementConfig&
                                       copy_config)
    : queue_(queue), network_(network), memory_(memory),
      allocator_(allocator), tcams_(std::move(tcams)),
      channels_(std::move(channels)), config_(config),
      rng_(config.seed),
      detector_(memory.num_nodes(), config.heartbeat_interval,
                config.suspicion_threshold, config.min_missed_probes),
      covered_(memory.num_nodes(), 0),
      copier_(queue, network, memory, allocator, channels_, copy_config,
              stats_)
{
    PULSE_ASSERT(config_.enabled(), "plane built with factor 1");
    PULSE_ASSERT(tcams_.size() == memory_.num_nodes() &&
                     channels_.size() == memory_.num_nodes(),
                 "replication plane wiring mismatch");
    arm_scan();
    arm_probe();
}

void
ReplicationPlane::attach_replay_windows(
    std::vector<accel::ReplayWindow*> windows)
{
    PULSE_ASSERT(windows.size() == memory_.num_nodes(),
                 "one replay window per node");
    replay_windows_ = std::move(windows);
}

// ---------------------------------------------------------------------
// Control loops
// ---------------------------------------------------------------------

void
ReplicationPlane::note_activity()
{
    scan_saw_traffic_ = true;
    probe_saw_traffic_ = true;
    if (!scan_armed_) {
        arm_scan();
    }
    if (!probe_armed_) {
        arm_probe();
    }
}

void
ReplicationPlane::arm_scan()
{
    scan_armed_ = true;
    queue_.schedule_after(config_.scan_interval, [this] { on_scan(); });
}

void
ReplicationPlane::on_scan()
{
    grow_extents();
    plan_replication();
    pump();
    // Self-quiescing: stay armed only while there is copy work or the
    // workload is generating traffic (allocation can grow mid-run), so
    // an idle cluster's queue still drains.
    const bool keep = scan_saw_traffic_ || busy();
    scan_saw_traffic_ = false;
    if (keep) {
        arm_scan();
    } else {
        scan_armed_ = false;
    }
}

void
ReplicationPlane::grow_extents()
{
    for (NodeId node = 0; node < memory_.num_nodes(); node++) {
        if (detector_.is_dead(node)) {
            continue;  // nothing new can be allocated worth saving
        }
        // Application frontier only: replica backing store also sits
        // past a node's bump pointer, and covering it would replicate
        // the replicas (a self-amplifying loop).
        const Bytes allocated = allocator_.app_allocated_on(node);
        if (allocated <= covered_[node]) {
            continue;
        }
        Extent extent;
        extent.home = node;
        extent.va_base =
            memory_.address_map().region(node).base + covered_[node];
        extent.length = allocated - covered_[node];
        covered_[node] = allocated;
        extents_.push_back(std::move(extent));
    }
}

void
ReplicationPlane::plan_replication()
{
    std::uint32_t live_nodes = 0;
    for (NodeId node = 0; node < memory_.num_nodes(); node++) {
        if (!detector_.is_dead(node)) {
            live_nodes++;
        }
    }
    // Clamp the factor to what the surviving cluster can hold.
    const std::uint32_t desired =
        std::min(config_.replication_factor, live_nodes);
    for (std::size_t index = 0; index < extents_.size(); index++) {
        Extent& extent = extents_[index];
        const std::optional<NodeId> owner =
            memory_.address_map().node_for(extent.va_base);
        if (!owner || detector_.is_dead(*owner)) {
            continue;  // authoritative copy unreachable: nothing to read
        }
        // Count current holders of the bytes: the home, but only while
        // it is still the authoritative owner (after a failover the
        // home's frame is stale — writes went to the replicas — so a
        // recovered home adds no redundancy), plus every live or
        // in-flight replica. The owning replica counts via the replica
        // loop.
        std::uint32_t holders = (*owner == extent.home) ? 1 : 0;
        for (const Replica& replica : extent.replicas) {
            if (!replica.abandoned &&
                !detector_.is_dead(replica.node)) {
                holders++;
            }
        }
        while (holders < desired) {
            NodeId target = kInvalidNode;
            // step in [1, n] so the rotation covers every node; the
            // home comes up last (step == n) and is only eligible
            // when stale (see below).
            for (std::uint32_t step = 1; step <= memory_.num_nodes();
                 step++) {
                const NodeId candidate = static_cast<NodeId>(
                    (extent.home + step) % memory_.num_nodes());
                // The home is a valid replica target only once it has
                // lost ownership (failover or migration moved the
                // authoritative path away and left its frame stale) —
                // re-populating it then restores the factor on a
                // recovered node.
                if ((candidate == extent.home &&
                     *owner == extent.home) ||
                    detector_.is_dead(candidate)) {
                    continue;
                }
                // Abandoned records (allocation failed there) block
                // their node too: re-targeting it every scan would
                // spin on the same full node. notify_recovered erases
                // abandoned records, re-opening the node when topology
                // changes free capacity.
                const bool holds = std::any_of(
                    extent.replicas.begin(), extent.replicas.end(),
                    [candidate](const Replica& r) {
                        return r.node == candidate;
                    });
                if (!holds) {
                    target = candidate;
                    break;
                }
            }
            if (target == kInvalidNode) {
                break;  // degraded: no eligible node left
            }
            Replica replica;
            replica.node = target;
            extent.replicas.push_back(replica);
            pending_.emplace_back(index, target);
            holders++;
        }
    }
}

void
ReplicationPlane::pump()
{
    while (!copier_.active() && !pending_.empty()) {
        const auto [index, target] = pending_.front();
        pending_.pop_front();
        Extent& extent = extents_[index];
        auto it = std::find_if(
            extent.replicas.begin(), extent.replicas.end(),
            [target](const Replica& r) {
                return r.node == target && !r.live && !r.abandoned;
            });
        if (it == extent.replicas.end() ||
            detector_.is_dead(target)) {
            continue;  // purged or died while queued
        }
        const std::optional<NodeId> owner =
            memory_.address_map().node_for(extent.va_base);
        if (!owner || detector_.is_dead(*owner)) {
            continue;  // source unreachable: re-planned if it returns
        }
        const Bytes phys =
            allocator_.alloc_backing(target, extent.length,
                                     kBackingAlign);
        if (phys == mem::ClusterAllocator::kNoBacking) {
            it->abandoned = true;
            stats_.replica_alloc_failures.increment();
            continue;
        }
        it->phys = phys;
        stats_.copies_started.increment();
        if (extent.established_once) {
            stats_.rereplications.increment();
        }
        copier_.start(extent.va_base, extent.length, *owner, target,
                      phys, [this, index, target](bool copied) {
                          on_copy_done(index, target, copied);
                      });
    }
}

void
ReplicationPlane::arm_probe()
{
    probe_armed_ = true;
    // Deterministic jitter from the plane's private stream keeps probe
    // rounds from phase-locking with workload periodicity.
    const Time jitter = static_cast<Time>(
        static_cast<double>(config_.heartbeat_interval) *
        config_.heartbeat_jitter * rng_.next_double());
    queue_.schedule_after(config_.heartbeat_interval + jitter,
                          [this] { on_probe_round(); });
}

void
ReplicationPlane::on_probe_round()
{
    // Quiesce when the previous round fully resolved and nothing is
    // moving: detection is only needed while there is traffic to
    // protect or an unanswered probe to chase. Any mirror call re-arms.
    const bool active =
        probe_saw_traffic_ || detector_.unresolved() || busy();
    probe_saw_traffic_ = false;
    if (!active) {
        probe_armed_ = false;
        return;
    }
    const Time now = queue_.now();
    for (NodeId node = 0; node < detector_.num_nodes(); node++) {
        if (detector_.should_declare(node, now)) {
            execute_failover(node);
        }
    }
    for (NodeId node = 0; node < detector_.num_nodes(); node++) {
        if (detector_.is_dead(node)) {
            continue;
        }
        detector_.on_probe_sent(node, now);
        stats_.heartbeats_sent.increment();
        // Probe and ack ride the ordinary message path, so they stall
        // and black out exactly as traversal traffic does — that is
        // what gives the detector its stall-vs-blackout signal.
        network_.send_message(
            net::EndpointAddr::client(0),
            net::EndpointAddr::mem_node(node),
            config_.heartbeat_bytes, [this, node] {
                network_.send_message(
                    net::EndpointAddr::mem_node(node),
                    net::EndpointAddr::client(0),
                    config_.heartbeat_bytes, [this, node] {
                        stats_.heartbeat_acks.increment();
                        detector_.on_ack(node, queue_.now());
                    });
            });
    }
    arm_probe();
}

// ---------------------------------------------------------------------
// Replica copy outcome
// ---------------------------------------------------------------------

void
ReplicationPlane::on_copy_done(std::size_t index, NodeId target,
                               bool copied)
{
    Extent& extent = extents_[index];
    if (!copied) {
        // The copier already returned the reserved backing.
        extent.replicas.erase(
            std::remove_if(extent.replicas.begin(),
                           extent.replicas.end(),
                           [target](const Replica& r) {
                               return r.node == target && !r.live;
                           }),
            extent.replicas.end());
        stats_.copies_aborted.increment();
        // The scan re-plans the lost slot once the topology settles.
        scan_saw_traffic_ = true;
        if (!scan_armed_) {
            arm_scan();
        }
        pump();
        return;
    }
    // The copier's functional copy landed the authoritative bytes; from
    // the next event on, mirror_store keeps the replica
    // write-synchronous.
    auto it = std::find_if(
        extent.replicas.begin(), extent.replicas.end(),
        [target](const Replica& r) {
            return r.node == target && !r.live && !r.abandoned;
        });
    PULSE_ASSERT(it != extent.replicas.end(),
                 "finished copy lost its replica record");
    it->live = true;
    // "Established" means the full planned replica set went live once;
    // copies after that point are re-replication (redundancy repair),
    // not initial establishment.
    if (std::none_of(extent.replicas.begin(), extent.replicas.end(),
                     [](const Replica& r) {
                         return !r.live && !r.abandoned;
                     })) {
        extent.established_once = true;
    }
    stats_.replicas_established.increment();
    if (!busy()) {
        last_restore_time_ = queue_.now();
    }
    pump();
}

// ---------------------------------------------------------------------
// Failover
// ---------------------------------------------------------------------

std::vector<std::pair<VirtAddr, Bytes>>
ReplicationPlane::spans_owned_by(const Extent& extent,
                                 NodeId owner) const
{
    // Maximal sub-spans of the extent whose current owner (home
    // partition overlaid with migration remaps) is @p owner.
    std::vector<std::pair<VirtAddr, Bytes>> spans;
    const mem::AddressMap& map = memory_.address_map();
    VirtAddr cursor = extent.va_base;
    const VirtAddr end = extent.va_base + extent.length;
    for (const mem::Remap& remap : map.remaps()) {
        const VirtAddr lo = std::max(remap.va_base, extent.va_base);
        const VirtAddr hi = std::min(remap.va_base + remap.length, end);
        if (hi <= lo) {
            continue;
        }
        if (cursor < lo && extent.home == owner) {
            spans.emplace_back(cursor, lo - cursor);
        }
        if (remap.node == owner) {
            spans.emplace_back(lo, hi - lo);
        }
        cursor = std::max(cursor, hi);
    }
    if (cursor < end && extent.home == owner) {
        spans.emplace_back(cursor, end - cursor);
    }
    // Coalesce adjacency so each span costs one remap + TCAM entry.
    std::vector<std::pair<VirtAddr, Bytes>> merged;
    for (const auto& span : spans) {
        if (!merged.empty() &&
            merged.back().first + merged.back().second == span.first) {
            merged.back().second += span.second;
        } else {
            merged.push_back(span);
        }
    }
    return merged;
}

void
ReplicationPlane::execute_failover(NodeId dead)
{
    detector_.declare_dead(dead);
    stats_.nodes_declared_dead.increment();

    // Quench copy machinery involving the dead node.
    if (copier_.active() &&
        (copier_.src() == dead || copier_.dst() == dead)) {
        copier_.abort();
    }
    pending_.erase(
        std::remove_if(pending_.begin(), pending_.end(),
                       [dead](const std::pair<std::size_t, NodeId>& p) {
                           return p.second == dead;
                       }),
        pending_.end());
    for (Extent& extent : extents_) {
        extent.replicas.erase(
            std::remove_if(
                extent.replicas.begin(), extent.replicas.end(),
                [&](const Replica& r) {
                    if (r.node != dead && !r.abandoned) {
                        return false;
                    }
                    // Replicas on the dead node are lost; abandoned
                    // slots get a fresh chance under the new topology.
                    if (r.node == dead && r.live) {
                        allocator_.free_backing(dead, r.phys,
                                                extent.length);
                    }
                    return true;
                }),
            extent.replicas.end());
    }

    // Atomically re-route everything the dead node served to surviving
    // replicas, through the same route flip a migration cutover uses,
    // so the route-agreement audit holds throughout.
    FailoverRecord record;
    record.node = dead;
    record.declared_at = queue_.now();
    for (Extent& extent : extents_) {
        const auto spans = spans_owned_by(extent, dead);
        if (spans.empty()) {
            continue;
        }
        Replica* replica = live_replica(extent, dead);
        if (replica == nullptr) {
            stats_.failover_spans_lost.increment(spans.size());
            continue;
        }
        for (const auto& [base, length] : spans) {
            const placement::RouteFlip flip = placement::flip_route(
                memory_.mutable_address_map(), network_.switch_table(),
                tcams_, dead, replica->node, base, length,
                replica->phys + (base - extent.va_base));
            if (flip == placement::RouteFlip::kRefused) {
                stats_.failover_spans_lost.increment();
                continue;
            }
            record.spans++;
            record.bytes += length;
            stats_.failover_spans_rerouted.increment();
            stats_.failover_bytes_rerouted.increment(length);
        }
    }
    stats_.failovers_executed.increment();
    failover_log_.push_back(record);
    last_restore_time_ = queue_.now();

    // Redundancy dropped: let the scan rebuild it on survivors.
    scan_saw_traffic_ = true;
    if (!scan_armed_) {
        arm_scan();
    }
}

// ---------------------------------------------------------------------
// Write-synchronous mirroring (accelerator hooks)
// ---------------------------------------------------------------------

ReplicationPlane::Extent*
ReplicationPlane::extent_containing(VirtAddr va)
{
    for (Extent& extent : extents_) {
        if (va >= extent.va_base &&
            va - extent.va_base < extent.length) {
            return &extent;
        }
    }
    return nullptr;
}

ReplicationPlane::Replica*
ReplicationPlane::live_replica(Extent& extent, NodeId excluding)
{
    for (Replica& replica : extent.replicas) {
        if (replica.live && !replica.abandoned &&
            replica.node != excluding &&
            !detector_.is_dead(replica.node)) {
            return &replica;
        }
    }
    return nullptr;
}

void
ReplicationPlane::mirror_store(VirtAddr va, const void* data,
                               Bytes len, Time now)
{
    note_activity();
    const std::uint8_t* src = static_cast<const std::uint8_t*>(data);
    VirtAddr cursor = va;
    Bytes remaining = len;
    while (remaining > 0) {
        Extent* extent = extent_containing(cursor);
        if (extent == nullptr) {
            return;  // not yet covered: the establishment copy will
                     // read these bytes when the scan picks them up
        }
        const Bytes offset = cursor - extent->va_base;
        const Bytes span =
            std::min(remaining, extent->length - offset);
        const std::optional<NodeId> owner =
            memory_.address_map().node_for(cursor);
        for (Replica& replica : extent->replicas) {
            // The current owner already took the authoritative write.
            if (!replica.live ||
                (owner && replica.node == *owner)) {
                continue;
            }
            channels_[replica.node]->access(now, span);
            memory_.node(replica.node)
                .write(replica.phys + offset, src, span);
            stats_.store_mirrors.increment();
        }
        cursor += span;
        src += span;
        remaining -= span;
    }
}

void
ReplicationPlane::mirror_cas(VirtAddr va, std::uint64_t desired,
                             Time now)
{
    note_activity();
    Extent* extent = extent_containing(va);
    if (extent == nullptr) {
        return;
    }
    const Bytes offset = va - extent->va_base;
    const std::optional<NodeId> owner =
        memory_.address_map().node_for(va);
    for (Replica& replica : extent->replicas) {
        if (!replica.live || (owner && replica.node == *owner)) {
            continue;
        }
        channels_[replica.node]->access(now, sizeof(desired));
        memory_.node(replica.node)
            .write(replica.phys + offset, &desired, sizeof(desired));
        stats_.cas_mirrors.increment();
    }
}

// ---------------------------------------------------------------------
// Replay-digest mirroring: exactly-once across a responder's death
// ---------------------------------------------------------------------

void
ReplicationPlane::mirror_mark(NodeId from,
                              const accel::ReplayWindow::Key& key)
{
    note_activity();
    for (NodeId node = 0; node < replay_windows_.size(); node++) {
        accel::ReplayWindow* window = replay_windows_[node];
        if (node == from || window == nullptr) {
            continue;
        }
        // A retransmit that reaches a replica before the original
        // execution completed must be suppressed, not re-executed —
        // the in-progress mark is what carries that knowledge over. A
        // cached zero-progress bounce is a routing decision, not a
        // completion: it is marked in progress again, as at the
        // executing node, so this visit's real response replaces it.
        const accel::ReplayWindow::Claim claim = window->claim(key);
        if (claim.verdict == accel::ReplayWindow::Verdict::kCached &&
            window->cached_bounce(claim.ticket)) {
            window->restart(claim.ticket);
        } else if (claim.verdict != accel::ReplayWindow::Verdict::kNew) {
            continue;
        }
        stats_.digest_marks.increment();
    }
}

void
ReplicationPlane::mirror_response(NodeId from,
                                  const accel::ReplayWindow::Key& key,
                                  const net::TraversalPacket& response)
{
    note_activity();
    for (NodeId node = 0; node < replay_windows_.size(); node++) {
        accel::ReplayWindow* window = replay_windows_[node];
        if (node == from || window == nullptr) {
            continue;
        }
        const accel::ReplayWindow::Claim claim = window->claim(key);
        if (claim.verdict == accel::ReplayWindow::Verdict::kCached) {
            continue;  // already completed here (absorbed digest)
        }
        window->record_response(key, response);
        stats_.digest_completions.increment();
    }
}

void
ReplicationPlane::mirror_unmark(NodeId from,
                                const accel::ReplayWindow::Key& key)
{
    note_activity();
    for (NodeId node = 0; node < replay_windows_.size(); node++) {
        accel::ReplayWindow* window = replay_windows_[node];
        if (node == from || window == nullptr) {
            continue;
        }
        if (window->unmark(key)) {
            stats_.digest_unmarks.increment();
        }
    }
}

// ---------------------------------------------------------------------
// Recovery / introspection
// ---------------------------------------------------------------------

void
ReplicationPlane::notify_cutover()
{
    stats_.cutovers_observed.increment();
    note_activity();
}

void
ReplicationPlane::notify_recovered(NodeId node)
{
    if (node >= detector_.num_nodes()) {
        return;  // nemesis window for a node this cluster lacks
    }
    stats_.recoveries.increment();
    detector_.mark_recovered(node, queue_.now());
    // Abandoned slots get retried under the restored topology.
    for (Extent& extent : extents_) {
        extent.replicas.erase(
            std::remove_if(extent.replicas.begin(),
                           extent.replicas.end(),
                           [](const Replica& r) {
                               return r.abandoned;
                           }),
            extent.replicas.end());
    }
    scan_saw_traffic_ = true;
    probe_saw_traffic_ = true;
    if (!scan_armed_) {
        arm_scan();
    }
    if (!probe_armed_) {
        arm_probe();
    }
}

double
ReplicationPlane::suspicion(NodeId node) const
{
    // While the probe loop is quiesced (no traffic) the detector has
    // no opinion: raw silence ratio would grow without bound and read
    // as suspicion of a healthy idle node.
    if (!probe_armed_) {
        return 0.0;
    }
    return detector_.suspicion(node, queue_.now());
}

bool
ReplicationPlane::is_dead(NodeId node) const
{
    return node < detector_.num_nodes() && detector_.is_dead(node);
}

Bytes
ReplicationPlane::rereplication_backlog_bytes() const
{
    Bytes backlog = copier_.active() ? copier_.length() : 0;
    for (const auto& [index, target] : pending_) {
        backlog += extents_[index].length;
    }
    return backlog;
}

void
ReplicationPlane::register_stats(const std::string& prefix,
                                 StatRegistry& registry)
{
    registry.register_counter(prefix + ".replicas_established",
                              &stats_.replicas_established);
    registry.register_counter(prefix + ".copies_started",
                              &stats_.copies_started);
    registry.register_counter(prefix + ".copies_aborted",
                              &stats_.copies_aborted);
    registry.register_counter(prefix + ".bytes_copied",
                              &stats_.bytes_copied);
    registry.register_counter(prefix + ".chunks_sent",
                              &stats_.chunks_sent);
    registry.register_counter(prefix + ".chunks_retransmitted",
                              &stats_.chunks_retransmitted);
    registry.register_counter(prefix + ".replica_alloc_failures",
                              &stats_.replica_alloc_failures);
    registry.register_counter(prefix + ".store_mirrors",
                              &stats_.store_mirrors);
    registry.register_counter(prefix + ".cas_mirrors",
                              &stats_.cas_mirrors);
    registry.register_counter(prefix + ".digest_marks",
                              &stats_.digest_marks);
    registry.register_counter(prefix + ".digest_completions",
                              &stats_.digest_completions);
    registry.register_counter(prefix + ".digest_unmarks",
                              &stats_.digest_unmarks);
    registry.register_counter(prefix + ".heartbeats_sent",
                              &stats_.heartbeats_sent);
    registry.register_counter(prefix + ".heartbeat_acks",
                              &stats_.heartbeat_acks);
    registry.register_counter(prefix + ".nodes_declared_dead",
                              &stats_.nodes_declared_dead);
    registry.register_counter(prefix + ".failovers_executed",
                              &stats_.failovers_executed);
    registry.register_counter(prefix + ".failover_spans_rerouted",
                              &stats_.failover_spans_rerouted);
    registry.register_counter(prefix + ".failover_bytes_rerouted",
                              &stats_.failover_bytes_rerouted);
    registry.register_counter(prefix + ".failover_spans_lost",
                              &stats_.failover_spans_lost);
    registry.register_counter(prefix + ".rereplications",
                              &stats_.rereplications);
    registry.register_counter(prefix + ".recoveries",
                              &stats_.recoveries);
    registry.register_counter(prefix + ".cutovers_observed",
                              &stats_.cutovers_observed);
}

}  // namespace pulse::replication
