#include "common/knobs.h"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iterator>

namespace pulse::knobs {

namespace {

enum class Kind : std::uint8_t { kModes, kModeList, kNumber, kPath };

struct Spec
{
    const char* name;
    Kind kind;
    const char* accepted;                   ///< listed in errors
    std::array<std::string_view, 3> modes;  ///< bit i = modes[i]
    NumberRule rule;
};

constexpr Spec kTable[] = {
    {"PULSE_CHECK", Kind::kModeList,
     "unset, empty, off, all, or a comma list of oracle, invariants, "
     "fail-fast",
     {"oracle", "invariants", "fail-fast"}},
    {"PULSE_PLACEMENT", Kind::kModes, "unset, empty, off, static, elastic",
     {"static", "elastic"}},
    {"PULSE_REPLICATION", Kind::kModes, "unset, empty, off, k2, k3",
     {"k2", "k3"}},
    {"PULSE_SERVING", Kind::kModes, "unset, empty, off, on", {"on"}},
    {"PULSE_POOLING", Kind::kModes, "unset, empty, off", {"off"}},
    {"PULSE_BENCH_THREADS", Kind::kNumber,
     "unset, empty, off, or a positive integer", {},
     NumberRule::kPositiveInteger},
    {"PULSE_BENCH_OPS_SCALE", Kind::kNumber,
     "unset, empty, off, or a positive number", {}, NumberRule::kPositive},
    {"PULSE_METRICS_OUT", Kind::kPath},
    {"PULSE_BENCH_WALLCLOCK_OUT", Kind::kPath},
};

/** Bit of @p token among @p spec's modes, or 0 if it is none. */
std::uint32_t
mode_bit(const Spec& spec, std::string_view token)
{
    for (std::size_t i = 0; i < spec.modes.size(); i++) {
        if (!token.empty() && spec.modes[i] == token) {
            return 1u << i;
        }
    }
    return 0;
}

/** "all", or a comma list of @p spec's modes. */
bool
parse_mode_list(const Spec& spec, std::string_view text,
                std::uint32_t* modes)
{
    if (text == "all") {
        for (const std::string_view mode : spec.modes) {
            *modes |= mode_bit(spec, mode);
        }
        return true;
    }
    while (true) {
        const std::size_t comma = text.find(',');
        const std::uint32_t bit = mode_bit(spec, text.substr(0, comma));
        *modes |= bit;
        if (bit == 0 || comma == std::string_view::npos) {
            return bit != 0;
        }
        text.remove_prefix(comma + 1);
    }
}

bool
reject(std::string_view label, std::string_view text,
       std::string_view accepted, std::string* error)
{
    if (error != nullptr) {
        *error = std::string(label) + ": invalid value \"" +
                 std::string(text) + "\"; accepted: " +
                 std::string(accepted);
    }
    return false;
}

}  // namespace

const char*
name(Knob knob)
{
    return kTable[static_cast<std::size_t>(knob)].name;
}

bool
parse_number(std::string_view label, std::string_view text,
             NumberRule rule, double* out, std::string* error)
{
    const char* end = text.data() + text.size();
    double value = 0.0;
    bool ok = false;
    if (rule == NumberRule::kPositiveInteger) {
        unsigned count = 0;
        const auto [ptr, ec] = std::from_chars(text.data(), end, count);
        ok = ec == std::errc() && ptr == end && count > 0;
        value = count;
    } else {
        const auto [ptr, ec] = std::from_chars(text.data(), end, value);
        ok = ec == std::errc() && ptr == end && std::isfinite(value) &&
             (rule == NumberRule::kPositive ? value > 0.0 : value >= 0.0);
    }
    if (!ok) {
        const char* rules[] = {"a positive integer", "a positive number",
                               "a non-negative number"};
        return reject(label, text, rules[static_cast<int>(rule)], error);
    }
    *out = value;
    return true;
}

bool
parse(Knob knob, std::string_view text, Value* out, std::string* error)
{
    const Spec& spec = kTable[static_cast<std::size_t>(knob)];
    *out = Value{};
    out->modes = mode_bit(spec, text);
    bool ok = out->modes != 0 || text.empty() || text == "off";
    if (!ok && spec.kind == Kind::kModeList) {
        ok = parse_mode_list(spec, text, &out->modes);
    } else if (!ok && spec.kind == Kind::kNumber) {
        ok = parse_number(spec.name, text, spec.rule, &out->number,
                          nullptr);
    } else if (!ok && spec.kind == Kind::kPath) {
        out->path = text;
        ok = true;
    }
    return ok || reject(spec.name, text, spec.accepted, error);
}

bool
read(Knob knob, Value* out, std::string* error)
{
    const char* text = std::getenv(name(knob));
    return parse(knob, text != nullptr ? text : "", out, error);
}

bool
validate_env(std::string* error)
{
    Value value;
    for (std::size_t i = 0; i < std::size(kTable); i++) {
        if (!read(static_cast<Knob>(i), &value, error)) {
            return false;
        }
    }
    return true;
}

bool
pooling_enabled()
{
    static const bool enabled = [] {
        Value value;
        return !read(Knob::kPooling, &value, nullptr) ||
               value.modes != kPoolingOff;
    }();
    return enabled;
}

}  // namespace pulse::knobs
