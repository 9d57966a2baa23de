/**
 * @file
 * Point-to-point link model.
 *
 * Each directed link (endpoint -> switch or switch -> endpoint) is a
 * serialization resource: a packet occupies the wire for size/bandwidth
 * seconds (queueing behind earlier packets), then takes the propagation
 * delay to arrive. This is the standard store-and-forward abstraction;
 * it is what bounds the cache-based baseline, whose every miss moves a
 * whole page across this link.
 */
#ifndef PULSE_NET_LINK_H
#define PULSE_NET_LINK_H

#include <cstdint>

#include "common/serial.h"
#include "common/units.h"

namespace pulse::net {

/** One direction of a full-duplex link. */
class Link
{
  public:
    /**
     * @param bandwidth   wire bandwidth in bytes/s
     * @param propagation one-way propagation + PHY latency
     */
    Link(Rate bandwidth, Time propagation);

    /**
     * Transmit @p bytes starting no earlier than @p now; returns the
     * arrival time at the far end.
     */
    Time transmit(Time now, Bytes bytes);

    /** Earliest time a new packet could start serializing. */
    Time busy_until() const { return busy_until_; }

    /** Total bytes sent. */
    Bytes bytes_sent() const { return bytes_; }

    /** Total packets sent. */
    std::uint64_t packets_sent() const { return packets_; }

    /** Time spent serializing. */
    Time busy_time() const { return busy_time_; }

    /** Achieved bandwidth over @p window (bytes/s). */
    Rate achieved_bandwidth(Time window) const;

    /** Reset statistics (not the busy horizon). */
    void reset_stats();

    /** Checkpoint support: busy horizon + counters. */
    void
    checkpoint(StateIo& io)
    {
        io.i64(busy_until_);
        io.u64(bytes_);
        io.u64(packets_);
        io.i64(busy_time_);
    }

  private:
    Rate bandwidth_;
    Time propagation_;
    Time busy_until_ = 0;
    Bytes bytes_ = 0;
    std::uint64_t packets_ = 0;
    Time busy_time_ = 0;
};

}  // namespace pulse::net

#endif  // PULSE_NET_LINK_H
