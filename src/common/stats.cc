#include "common/stats.h"

#include <cstdio>

#include "common/logging.h"
#include "common/serial.h"

namespace pulse {

void
Counter::checkpoint(StateIo& io)
{
    io.u64(value_);
}

void
Accumulator::checkpoint(StateIo& io)
{
    io.f64(sum_);
    io.u64(count_);
}

void
StatRegistry::register_counter(const std::string& name,
                               const Counter* counter)
{
    PULSE_ASSERT(counter != nullptr, "null counter '%s'", name.c_str());
    counters_[name] = counter;
}

void
StatRegistry::register_accumulator(const std::string& name,
                                   const Accumulator* acc)
{
    PULSE_ASSERT(acc != nullptr, "null accumulator '%s'", name.c_str());
    accumulators_[name] = acc;
}

std::map<std::string, double>
StatRegistry::snapshot() const
{
    std::map<std::string, double> out;
    for (const auto& [name, counter] : counters_) {
        out[name] = static_cast<double>(counter->value());
    }
    for (const auto& [name, acc] : accumulators_) {
        out[name] = acc->sum();
    }
    return out;
}

std::string
StatRegistry::dump() const
{
    std::string out;
    char line[256];
    for (const auto& [name, value] : snapshot()) {
        std::snprintf(line, sizeof(line), "%-56s %.6g\n", name.c_str(),
                      value);
        out += line;
    }
    return out;
}

}  // namespace pulse
