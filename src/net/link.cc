#include "net/link.h"

#include <algorithm>

#include "common/logging.h"

namespace pulse::net {

Link::Link(Rate bandwidth, Time propagation)
    : bandwidth_(bandwidth), propagation_(propagation)
{
    PULSE_ASSERT(bandwidth > 0, "non-positive link bandwidth");
    PULSE_ASSERT(propagation >= 0, "negative propagation");
}

Time
Link::transmit(Time now, Bytes bytes)
{
    const Time start = std::max(now, busy_until_);
    const Time serialization = transfer_time(bytes, bandwidth_);
    busy_until_ = start + serialization;
    bytes_ += bytes;
    return busy_until_ + propagation_;
}

Rate
Link::achieved_bandwidth(Time window) const
{
    if (window <= 0) {
        return 0;
    }
    return static_cast<Rate>(bytes_) / to_seconds(window);
}

void
Link::reset_stats()
{
    bytes_ = 0;
}

}  // namespace pulse::net
