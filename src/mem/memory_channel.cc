#include "mem/memory_channel.h"

#include <algorithm>

#include "common/logging.h"

namespace pulse::mem {

MemoryChannel::MemoryChannel(Rate raw_bw) : raw_bw_(raw_bw)
{
    PULSE_ASSERT(raw_bw > 0, "non-positive channel bandwidth");
}

void
MemoryChannel::set_efficiency(double efficiency)
{
    PULSE_ASSERT(efficiency > 0.0 && efficiency <= 1.0,
                 "efficiency out of range");
    efficiency_ = efficiency;
}

Time
MemoryChannel::access(Time now, Bytes bytes)
{
    const Time start = std::max(now, busy_until_);
    const Time occupancy = transfer_time(bytes, effective_bandwidth());
    busy_until_ = start + occupancy;
    bytes_ += bytes;
    busy_time_ += occupancy;
    return busy_until_;
}

void
MemoryChannel::reset_stats()
{
    bytes_ = 0;
    busy_time_ = 0;
}

ChannelSet::ChannelSet(std::uint32_t num_channels,
                       Rate raw_bw_per_channel,
                       double interconnect_efficiency)
    : efficiency_(interconnect_efficiency)
{
    PULSE_ASSERT(num_channels > 0, "need at least one channel");
    channels_.reserve(num_channels);
    for (std::uint32_t i = 0; i < num_channels; i++) {
        channels_.emplace_back(raw_bw_per_channel);
        channels_.back().set_efficiency(efficiency_);
    }
}

void
ChannelSet::set_interconnect_enabled(bool enabled)
{
    interconnect_ = enabled;
    for (auto& channel : channels_) {
        channel.set_efficiency(enabled ? efficiency_ : 1.0);
    }
}

Time
ChannelSet::access(Time now, Bytes bytes)
{
    auto* best = &channels_.front();
    std::uint32_t best_index = 0;
    for (std::uint32_t i = 0; i < channels_.size(); i++) {
        if (channels_[i].busy_until() < best->busy_until()) {
            best = &channels_[i];
            best_index = i;
        }
    }
    const Time start = std::max(now, best->busy_until());
    const Time done = best->access(now, bytes);
    record_span(best_index, start, done, bytes);
    return done;
}

Time
ChannelSet::access_on(std::uint32_t channel, Time now, Bytes bytes)
{
    PULSE_ASSERT(channel < channels_.size(), "bad channel %u", channel);
    const Time start = std::max(now, channels_[channel].busy_until());
    const Time done = channels_[channel].access(now, bytes);
    record_span(channel, start, done, bytes);
    return done;
}

void
ChannelSet::record_span(std::uint32_t channel, Time start, Time done,
                        Bytes bytes)
{
    if (tracer_ == nullptr || !tracer_->enabled()) {
        return;
    }
    // The channel arbiter has no request identity; spans carry the
    // channel index in the request's seq slot for per-channel views.
    tracer_->record({RequestId{0, channel},
                     trace::SpanKind::kMemChannel,
                     trace::Location::kMemNode, node_, start,
                     done - start, static_cast<std::uint64_t>(bytes)});
}

Rate
ChannelSet::total_effective_bandwidth() const
{
    Rate total = 0;
    for (const auto& channel : channels_) {
        total += channel.effective_bandwidth();
    }
    return total;
}

Bytes
ChannelSet::bytes_transferred() const
{
    Bytes total = 0;
    for (const auto& channel : channels_) {
        total += channel.bytes_transferred();
    }
    return total;
}

Rate
ChannelSet::achieved_bandwidth(Time window) const
{
    if (window <= 0) {
        return 0;
    }
    return static_cast<Rate>(bytes_transferred()) / to_seconds(window);
}

void
ChannelSet::reset_stats()
{
    for (auto& channel : channels_) {
        channel.reset_stats();
    }
}

void
ChannelSet::checkpoint(StateIo& io)
{
    io.tag("CHAN");
    io.expect(std::uint64_t{channels_.size()}, "channel count");
    for (MemoryChannel& channel : channels_) {
        channel.checkpoint(io);
    }
}

}  // namespace pulse::mem
