/**
 * @file
 * Memory-channel bandwidth model for a memory node.
 *
 * The paper's U250 board exposes four memory channels split two per
 * accelerator; each memory node therefore has two channels and a 25 GB/s
 * aggregate limit imposed via the vendor memory-interconnect IP (the
 * board reaches 34 GB/s with per-core dedicated channels — supplementary
 * Fig. 1b). We model each channel as a serially-occupied resource:
 *
 *   completion = max(now, busy_until) + occupancy(bytes)
 *
 * where occupancy = bytes / effective_bandwidth. Access *latency*
 * (translation + DRAM access, ~120 ns) is added by the caller (the
 * accelerator memory pipeline or the CPU model); the channel only
 * accounts for bandwidth contention, which is what saturates under load.
 *
 * The interconnect IP is modelled as a bandwidth-efficiency factor
 * (25/34 by default) applied while enabled, reproducing the
 * "w/o interconnect" series of supplementary Fig. 1b when disabled.
 */
#ifndef PULSE_MEM_MEMORY_CHANNEL_H
#define PULSE_MEM_MEMORY_CHANNEL_H

#include <cstdint>
#include <vector>

#include "common/serial.h"
#include "common/stats.h"
#include "common/units.h"
#include "trace/trace.h"

namespace pulse::mem {

/** One DRAM channel: a bandwidth-limited serial resource. */
class MemoryChannel
{
  public:
    /** Channel with raw bandwidth @p raw_bw (bytes/s). */
    explicit MemoryChannel(Rate raw_bw);

    /** Raw (no-interconnect) bandwidth. */
    Rate raw_bandwidth() const { return raw_bw_; }

    /** Effective bandwidth after the interconnect factor. */
    Rate effective_bandwidth() const { return raw_bw_ * efficiency_; }

    /** Set the interconnect efficiency factor in (0, 1]. */
    void set_efficiency(double efficiency);

    /**
     * Reserve the channel for a @p bytes transfer arriving at @p now.
     * Returns the completion time; the channel is busy until then.
     */
    Time access(Time now, Bytes bytes);

    /** Earliest time a new transfer could start. */
    Time busy_until() const { return busy_until_; }

    /** Total bytes transferred. */
    Bytes bytes_transferred() const { return bytes_; }

    /** Total time the channel spent transferring. */
    Time busy_time() const { return busy_time_; }

    /** Reset statistics (not the busy horizon). */
    void reset_stats();

    /** Checkpoint support: busy horizon + counters. */
    void
    checkpoint(StateIo& io)
    {
        io.i64(busy_until_);
        io.u64(bytes_);
        io.i64(busy_time_);
    }

  private:
    Rate raw_bw_;
    double efficiency_ = 1.0;
    Time busy_until_ = 0;
    Bytes bytes_ = 0;
    Time busy_time_ = 0;
};

/**
 * A memory node's set of channels. Accesses are steered to the channel
 * that can start earliest (the interconnect IP connects all cores to all
 * channels); with the interconnect disabled, callers may pin accesses to
 * a specific channel (dedicated-channel mode).
 */
class ChannelSet
{
  public:
    /**
     * @p num_channels channels of @p raw_bw_per_channel each;
     * @p interconnect_efficiency applies while shared mode is on.
     */
    ChannelSet(std::uint32_t num_channels, Rate raw_bw_per_channel,
               double interconnect_efficiency);

    /** Number of channels. */
    std::uint32_t size() const
    {
        return static_cast<std::uint32_t>(channels_.size());
    }

    /** Toggle the interconnect IP model (shared vs dedicated mode). */
    void set_interconnect_enabled(bool enabled);

    /** Whether the interconnect model is active. */
    bool interconnect_enabled() const { return interconnect_; }

    /** Schedule an access on the least-busy channel. */
    Time access(Time now, Bytes bytes);

    /** Schedule an access pinned to channel @p channel. */
    Time access_on(std::uint32_t channel, Time now, Bytes bytes);

    /** Aggregate effective bandwidth (bytes/s). */
    Rate total_effective_bandwidth() const;

    /** Total bytes moved across all channels. */
    Bytes bytes_transferred() const;

    /** Achieved bandwidth over @p window (bytes/s). */
    Rate achieved_bandwidth(Time window) const;

    /** Reset statistics on all channels. */
    void reset_stats();

    /** Checkpoint support (core/checkpoint.h). */
    void checkpoint(StateIo& io);

    /**
     * Attach the cluster's span tracer; @p node labels the spans.
     * Channel occupancy spans are not request-attributed (the channel
     * arbiter sees bursts, not request ids), so they record whenever
     * the tracer is enabled.
     */
    void
    set_tracer(trace::Tracer* tracer, NodeId node)
    {
        tracer_ = tracer;
        node_ = node;
    }

  private:
    /** Record one occupancy span for a transfer on @p channel. */
    void record_span(std::uint32_t channel, Time start, Time done,
                     Bytes bytes);

    std::vector<MemoryChannel> channels_;
    double efficiency_;
    bool interconnect_ = true;
    trace::Tracer* tracer_ = nullptr;
    NodeId node_ = 0;
};

}  // namespace pulse::mem

#endif  // PULSE_MEM_MEMORY_CHANNEL_H
