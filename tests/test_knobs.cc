/**
 * @file
 * The environment knob table (src/common/knobs.h): for every knob,
 * unset, empty and off select the default, each named mode or a valid
 * number is accepted, and a typo is an error naming the knob and the
 * values it accepts. Also checks that ClusterConfig::apply_env_knobs
 * sets all four plane configs from one environment.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/knobs.h"
#include "core/cluster.h"

namespace pulse::knobs {
namespace {

/** One knob value and what reading it must give. */
struct Case
{
    Knob knob;
    const char* text;  ///< nullptr: unset
    bool ok;
    std::uint32_t modes = 0;
    double number = 0.0;
    const char* path = "";
};

/** Sets one variable for a scope, unsetting it on exit. */
class ScopedEnv
{
  public:
    ScopedEnv(const char* name, const char* value) : name_(name)
    {
        if (value == nullptr) {
            unsetenv(name);
        } else {
            setenv(name, value, 1);
        }
    }
    ~ScopedEnv() { unsetenv(name_); }
    ScopedEnv(const ScopedEnv&) = delete;
    ScopedEnv& operator=(const ScopedEnv&) = delete;

  private:
    const char* name_;
};

constexpr Knob kAll[] = {
    Knob::kCheck,        Knob::kPlacement,     Knob::kReplication,
    Knob::kServing,      Knob::kBenchThreads,  Knob::kBenchOpsScale,
    Knob::kMetricsOut,   Knob::kBenchWallclockOut,
};

std::vector<Case>
cases()
{
    std::vector<Case> all;
    // Unset, empty and off select the default for every knob.
    for (const Knob knob : kAll) {
        all.push_back({knob, nullptr, true});
        all.push_back({knob, "", true});
        all.push_back({knob, "off", true});
    }
    const std::vector<Case> modes = {
        {Knob::kCheck, "all", true,
         kCheckOracle | kCheckInvariants | kCheckFailFast},
        {Knob::kCheck, "oracle", true, kCheckOracle},
        {Knob::kCheck, "invariants", true, kCheckInvariants},
        {Knob::kCheck, "fail-fast", true, kCheckFailFast},
        {Knob::kCheck, "oracle,invariants", true,
         kCheckOracle | kCheckInvariants},
        {Knob::kCheck, "oracel", false},
        {Knob::kCheck, "oracle,", false},
        {Knob::kCheck, "failfast", false},
        {Knob::kCheck, "1", false},
        {Knob::kPlacement, "static", true, kPlacementStatic},
        {Knob::kPlacement, "elastic", true, kPlacementElastic},
        {Knob::kPlacement, "on", false},
        {Knob::kReplication, "k2", true, kReplicationK2},
        {Knob::kReplication, "k3", true, kReplicationK3},
        {Knob::kReplication, "k4oops", false},
        {Knob::kReplication, "2", false},
        {Knob::kServing, "on", true, kServingOn},
        {Knob::kServing, "1", false},
        {Knob::kBenchThreads, "4", true, 0, 4.0},
        {Knob::kBenchThreads, "4x", false},
        {Knob::kBenchThreads, "-3", false},
        {Knob::kBenchThreads, "0", false},
        {Knob::kBenchOpsScale, "0.25", true, 0, 0.25},
        {Knob::kBenchOpsScale, "abc", false},
        {Knob::kBenchOpsScale, "0", false},
        {Knob::kBenchOpsScale, "inf", false},
        {Knob::kMetricsOut, "fig4.json", true, 0, 0.0, "fig4.json"},
        {Knob::kBenchWallclockOut, "wc.json", true, 0, 0.0, "wc.json"},
    };
    all.insert(all.end(), modes.begin(), modes.end());
    return all;
}

TEST(Knobs, EveryKnobFollowsTheGrammar)
{
    for (const Case& c : cases()) {
        const std::string label =
            std::string(name(c.knob)) + "=" +
            (c.text != nullptr ? c.text : "<unset>");
        SCOPED_TRACE(label);
        ScopedEnv env(name(c.knob), c.text);
        Value value;
        std::string error;
        ASSERT_EQ(read(c.knob, &value, &error), c.ok) << error;
        if (!c.ok) {
            // The error names the knob, the bad value and what it takes.
            EXPECT_NE(error.find(name(c.knob)), std::string::npos);
            EXPECT_NE(error.find(std::string("\"") + c.text + "\""),
                      std::string::npos);
            EXPECT_NE(error.find("accepted: unset, empty, off"),
                      std::string::npos)
                << error;
            EXPECT_FALSE(validate_env(&error));
            continue;
        }
        EXPECT_EQ(value.modes, c.modes);
        EXPECT_EQ(value.number, c.number);
        EXPECT_EQ(value.path, c.path);
        EXPECT_TRUE(validate_env(&error)) << error;
    }
}

TEST(Knobs, ErrorsListTheAcceptedModes)
{
    const std::pair<Knob, const char*> expected[] = {
        {Knob::kCheck, "all, or a comma list of oracle, invariants, "
                       "fail-fast"},
        {Knob::kPlacement, "off, static, elastic"},
        {Knob::kReplication, "off, k2, k3"},
        {Knob::kServing, "off, on"},
        {Knob::kBenchThreads, "a positive integer"},
        {Knob::kBenchOpsScale, "a positive number"},
    };
    for (const auto& [knob, accepted] : expected) {
        Value value;
        std::string error;
        EXPECT_FALSE(parse(knob, "typo", &value, &error));
        EXPECT_NE(error.find(accepted), std::string::npos) << error;
    }
}

TEST(Knobs, NumbersParseWholeAndInRange)
{
    double out = -1.0;
    std::string error;
    EXPECT_TRUE(parse_number("--max-delta", "0", NumberRule::kNonNegative,
                             &out, &error));
    EXPECT_EQ(out, 0.0);
    EXPECT_TRUE(parse_number("--max-delta", "2.5",
                             NumberRule::kNonNegative, &out, &error));
    EXPECT_EQ(out, 2.5);
    for (const char* bad : {"abc", "", "5%", " 5", "-1", "nan"}) {
        EXPECT_FALSE(parse_number("--max-delta", bad,
                                  NumberRule::kNonNegative, &out, &error))
            << bad;
        EXPECT_EQ(error.rfind("--max-delta: invalid value", 0), 0u);
        EXPECT_NE(error.find("a non-negative number"), std::string::npos);
    }
    EXPECT_EQ(out, 2.5);
    EXPECT_FALSE(parse_number("n", "99999999999",
                              NumberRule::kPositiveInteger, &out, &error));
}

TEST(Knobs, ApplySetsAllFourPlanesFromOneEnvironment)
{
    core::ClusterConfig config;
    std::string error;
    {
        ScopedEnv check("PULSE_CHECK", "oracle,fail-fast");
        ScopedEnv placement("PULSE_PLACEMENT", "elastic");
        ScopedEnv replication("PULSE_REPLICATION", "k3");
        ScopedEnv serving("PULSE_SERVING", "on");
        ASSERT_TRUE(config.apply_env_knobs(&error)) << error;
    }
    EXPECT_TRUE(config.check.oracle);
    EXPECT_FALSE(config.check.invariants);
    EXPECT_TRUE(config.check.fail_fast);
    EXPECT_EQ(config.placement.mode, placement::PlacementMode::kElastic);
    EXPECT_EQ(config.replication.replication_factor, 3u);
    EXPECT_TRUE(config.serve.on);

    {
        ScopedEnv check("PULSE_CHECK", "off");
        ScopedEnv placement("PULSE_PLACEMENT", "static");
        ScopedEnv replication("PULSE_REPLICATION", "k2");
        ScopedEnv serving("PULSE_SERVING", "");
        ASSERT_TRUE(config.apply_env_knobs(&error)) << error;
    }
    EXPECT_FALSE(config.check.enabled());
    EXPECT_EQ(config.placement.mode, placement::PlacementMode::kStatic);
    EXPECT_EQ(config.replication.replication_factor, 2u);
    EXPECT_FALSE(config.serve.on);

    // Unset everywhere: the default config, unchanged.
    {
        ScopedEnv check("PULSE_CHECK", nullptr);
        ScopedEnv placement("PULSE_PLACEMENT", nullptr);
        ScopedEnv replication("PULSE_REPLICATION", nullptr);
        ScopedEnv serving("PULSE_SERVING", nullptr);
        ASSERT_TRUE(config.apply_env_knobs(&error)) << error;
    }
    const core::ClusterConfig defaults;
    EXPECT_EQ(config.check.enabled(), defaults.check.enabled());
    EXPECT_EQ(config.placement.mode, defaults.placement.mode);
    EXPECT_EQ(config.replication.replication_factor,
              defaults.replication.replication_factor);
    EXPECT_EQ(config.serve.on, defaults.serve.on);

    // A malformed knob fails and changes nothing.
    config.replication.replication_factor = 2;
    ScopedEnv typo("PULSE_REPLICATION", "k4oops");
    EXPECT_FALSE(config.apply_env_knobs(&error));
    EXPECT_NE(error.find("PULSE_REPLICATION"), std::string::npos);
    EXPECT_EQ(config.replication.replication_factor, 2u);
}

}  // namespace
}  // namespace pulse::knobs
