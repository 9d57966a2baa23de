#include "placement/placement_plane.h"

#include <algorithm>

#include "common/logging.h"

namespace pulse::placement {

PlacementPlane::PlacementPlane(sim::EventQueue& queue,
                               net::Network& network,
                               mem::GlobalMemory& memory,
                               mem::ClusterAllocator& allocator,
                               std::vector<mem::RangeTcam*> tcams,
                               std::vector<mem::ChannelSet*> channels,
                               const PlacementConfig& config)
    : queue_(queue), memory_(memory), channels_(channels),
      config_(config), hotness_(memory.address_map(), config),
      engine_(queue, network, memory, allocator, std::move(tcams),
              std::move(channels), config)
{
    PULSE_ASSERT(config_.enabled(),
                 "constructing a placement plane in off mode");
    PULSE_ASSERT(config_.epoch > 0, "zero placement epoch");
}

void
PlacementPlane::attach_replay_windows(
    std::vector<accel::ReplayWindow*> windows)
{
    replay_windows_ = std::move(windows);
    engine_.set_cutover_listener([this](NodeId src, NodeId dst) {
        if (src < replay_windows_.size() &&
            dst < replay_windows_.size()) {
            const std::size_t copied =
                replay_windows_[dst]->absorb_from(
                    *replay_windows_[src]);
            stats_.replay_entries_handed_off.increment(copied);
        }
        if (cutover_observer_) {
            cutover_observer_();
        }
    });
}

void
PlacementPlane::mirror_completion(NodeId from,
                                  const accel::ReplayWindow::Key& key,
                                  const net::TraversalPacket& response)
{
    for (std::size_t node = 0; node < replay_windows_.size(); node++) {
        if (node == from) {
            continue;
        }
        if (replay_windows_[node]->import_completion(key, response)) {
            stats_.completions_mirrored.increment();
        }
    }
}

void
PlacementPlane::mirror_unmark(NodeId from,
                              const accel::ReplayWindow::Key& key)
{
    for (std::size_t node = 0; node < replay_windows_.size(); node++) {
        if (node == from) {
            continue;
        }
        replay_windows_[node]->unmark(key);
    }
}

void
PlacementPlane::record_access(VirtAddr va, Bytes bytes)
{
    stats_.accesses_sampled.increment();
    hotness_.record(va, bytes);
    if (!epoch_armed_) {
        arm_epoch();
    }
}

bool
PlacementPlane::try_forward_store(NodeId at, VirtAddr va,
                                  const void* data, Bytes len, Time now)
{
    const auto owner = memory_.address_map().node_for(va);
    if (!owner.has_value() || *owner == at) {
        return false;
    }
    channels_[*owner]->access(now, len);
    memory_.write(va, data, len);
    stats_.store_forwards.increment();
    return true;
}

std::optional<bool>
PlacementPlane::try_forward_cas(NodeId at, VirtAddr va,
                                std::uint64_t expected,
                                std::uint64_t desired, Time now)
{
    const auto owner = memory_.address_map().node_for(va);
    if (!owner.has_value() || *owner == at) {
        return std::nullopt;
    }
    channels_[*owner]->access(now, 8);
    stats_.cas_forwards.increment();
    const std::uint64_t current = memory_.read_as<std::uint64_t>(va);
    if (current != expected) {
        return false;
    }
    memory_.write_as<std::uint64_t>(va, desired);
    return true;
}

void
PlacementPlane::arm_epoch()
{
    epoch_armed_ = true;
    queue_.schedule_after(config_.epoch, [this] { on_epoch(); });
}

void
PlacementPlane::on_epoch()
{
    stats_.epochs.increment();
    const bool activity = hotness_.epoch_activity();
    hotness_.roll_epoch();
    if (config_.mode == PlacementMode::kElastic) {
        plan();
    }
    // Self-quiesce: an idle epoch with no migration work pending stops
    // the timer so the event queue can drain; the next recorded access
    // re-arms it.
    if (activity || busy()) {
        arm_epoch();
    } else {
        epoch_armed_ = false;
    }
}

void
PlacementPlane::plan()
{
    if (busy()) {
        return;  // let the current batch land before re-planning
    }
    std::vector<double> loads = hotness_.node_loads();
    const std::size_t n = loads.size();
    double sum = 0.0;
    for (const double load : loads) {
        sum += load;
    }
    const double mean = sum / static_cast<double>(n);
    if (mean <= 0.0) {
        return;
    }
    const double target = mean * (1.0 + config_.target_headroom);
    if (*std::max_element(loads.begin(), loads.end()) <
        mean * config_.trigger_imbalance) {
        return;
    }

    // Greedy rebalance on projected loads: repeatedly move the hottest
    // slab of the hottest node to the coldest node, while each move
    // strictly improves the pair. Deterministic throughout: loads come
    // from ordered maps, ties break toward the lowest node id.
    std::vector<std::vector<SlabLoad>> slabs(n);
    std::vector<std::size_t> cursor(n, 0);
    bool queued_any = false;
    for (std::uint32_t moves = 0;
         moves < config_.max_migrations_per_epoch; moves++) {
        std::size_t hot = 0;
        std::size_t cold = 0;
        for (std::size_t i = 1; i < n; i++) {
            if (loads[i] > loads[hot]) {
                hot = i;
            }
            if (loads[i] < loads[cold]) {
                cold = i;
            }
        }
        if (loads[hot] <= target || hot == cold) {
            break;
        }
        if (slabs[hot].empty() && cursor[hot] == 0) {
            slabs[hot] = hotness_.hottest_on(static_cast<NodeId>(hot));
        }
        // Next slab on the hot node whose move strictly improves the
        // hot/cold pair (skips slabs too heavy to help).
        bool moved = false;
        while (cursor[hot] < slabs[hot].size()) {
            const SlabLoad& slab = slabs[hot][cursor[hot]++];
            if (loads[cold] + slab.weight < loads[hot]) {
                pending_.emplace_back(slab.va_base,
                                      static_cast<NodeId>(cold));
                stats_.migrations_queued.increment();
                loads[hot] -= slab.weight;
                loads[cold] += slab.weight;
                queued_any = true;
                moved = true;
                break;
            }
        }
        if (!moved) {
            break;  // nothing movable on the hottest node
        }
    }
    if (queued_any) {
        stats_.plans.increment();
        pump();
    }
}

void
PlacementPlane::pump()
{
    while (!pending_.empty() && !engine_.active()) {
        const auto [va, dst] = pending_.front();
        pending_.pop_front();
        // A rejected start (slab no longer eligible: moved meanwhile,
        // unbacked tail, TCAM/capacity pressure) just tries the next.
        engine_.start(va, config_.slab_bytes, dst,
                      [this](bool) { pump(); });
    }
}

void
PlacementPlane::reset_stats()
{
    stats_ = PlacementStats{};
    engine_.reset_stats();
}

void
PlacementPlane::register_stats(const std::string& prefix,
                               StatRegistry& registry)
{
    registry.register_counter(prefix + ".accesses_sampled",
                              &stats_.accesses_sampled);
    registry.register_counter(prefix + ".epochs", &stats_.epochs);
    registry.register_counter(prefix + ".plans", &stats_.plans);
    registry.register_counter(prefix + ".migrations_queued",
                              &stats_.migrations_queued);
    registry.register_counter(prefix + ".store_forwards",
                              &stats_.store_forwards);
    registry.register_counter(prefix + ".cas_forwards",
                              &stats_.cas_forwards);
    registry.register_counter(prefix + ".replay_entries_handed_off",
                              &stats_.replay_entries_handed_off);
    registry.register_counter(prefix + ".completions_mirrored",
                              &stats_.completions_mirrored);
    const MigrationStats& m = engine_.stats();
    registry.register_counter(prefix + ".migrations_started",
                              &m.started);
    registry.register_counter(prefix + ".migrations_completed",
                              &m.completed);
    registry.register_counter(prefix + ".migrations_aborted",
                              &m.aborted);
    registry.register_counter(prefix + ".bytes_copied",
                              &m.bytes_copied);
    registry.register_counter(prefix + ".chunks_sent",
                              &m.chunks_sent);
    registry.register_counter(prefix + ".chunks_retransmitted",
                              &m.chunks_retransmitted);
    registry.register_counter(prefix + ".remaps_installed",
                              &m.remaps_installed);
}

}  // namespace pulse::placement
