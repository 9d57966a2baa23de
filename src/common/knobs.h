/**
 * @file
 * The environment knob table: every PULSE_* variable the simulator,
 * benches and tools read. knobs.cc is the only code that reads the
 * environment; DESIGN.md §11 lists each knob's values and readers.
 *
 * One grammar: unset, empty and "off" select the default (off, for
 * every plane). Otherwise a mode knob takes one of its named modes
 * (PULSE_CHECK: also "all" or a comma list), a number knob a number
 * that parses whole and is in range, a path knob any path. Anything
 * else is an error naming the knob and the values it accepts; parsing
 * never aborts.
 */
#ifndef PULSE_COMMON_KNOBS_H
#define PULSE_COMMON_KNOBS_H

#include <cstdint>
#include <string>
#include <string_view>

namespace pulse::knobs {

/** The knobs, in table order. */
enum class Knob : std::uint8_t {
    kCheck, kPlacement, kReplication, kServing,
    kBenchThreads, kBenchOpsScale, kMetricsOut, kBenchWallclockOut,
};

// Mode bits: bit i is a mode knob's i-th named mode in the table.
inline constexpr std::uint32_t kCheckOracle = 1, kCheckInvariants = 2,
                               kCheckFailFast = 4;
inline constexpr std::uint32_t kPlacementStatic = 1, kPlacementElastic = 2;
inline constexpr std::uint32_t kReplicationK2 = 1, kReplicationK3 = 2;
inline constexpr std::uint32_t kServingOn = 1;

/** What a number must be. */
enum class NumberRule : std::uint8_t {
    kPositiveInteger,  ///< 1, 2, ... up to UINT_MAX
    kPositive,         ///< finite and > 0
    kNonNegative,      ///< finite and >= 0
};

/** A parsed knob value; zero / empty is the knob's default. */
struct Value
{
    std::uint32_t modes = 0;  ///< mode knobs: the selected mode bits
    double number = 0.0;      ///< number knobs (always > 0 when set)
    std::string path;         ///< path knobs
};

/** The knob's environment variable name. */
const char* name(Knob knob);

/** Parse @p text as @p knob's value; false with @p error if malformed. */
bool parse(Knob knob, std::string_view text, Value* out,
           std::string* error);

/** parse() of the knob's environment variable. */
bool read(Knob knob, Value* out, std::string* error);

/** read() every knob; false with the first malformed one's error. */
bool validate_env(std::string* error);

/**
 * The checked number parse behind the number knobs, for flags too:
 * all of @p text must be a number obeying @p rule. @p label names the
 * flag or knob in the error.
 */
bool parse_number(std::string_view label, std::string_view text,
                  NumberRule rule, double* out, std::string* error);

}  // namespace pulse::knobs

#endif  // PULSE_COMMON_KNOBS_H
