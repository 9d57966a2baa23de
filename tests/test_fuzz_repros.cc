/**
 * @file
 * Replays the committed fuzz corpus (every .json file in
 * tests/fuzz_corpus) through the checked simulator. Every file is a
 * FuzzCase reproducer — cases the generator covers by construction
 * (all six data structures crossed with fault profiles, plus
 * program-differential seeds) and any minimized reproducer a past
 * failure left behind. A case that
 * fails here is a regression with its reproducer already in hand.
 *
 * The corpus directory is baked in at compile time
 * (PULSE_FUZZ_CORPUS_DIR) so the test runs from any cwd.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "check/fuzzer.h"

namespace pulse::check {
namespace {

std::vector<std::filesystem::path>
corpus_files()
{
    std::vector<std::filesystem::path> files;
    for (const auto& entry : std::filesystem::directory_iterator(
             PULSE_FUZZ_CORPUS_DIR)) {
        if (entry.path().extension() == ".json") {
            files.push_back(entry.path());
        }
    }
    std::sort(files.begin(), files.end());
    return files;
}

TEST(FuzzCorpus, CoversAllStructuresAndFaults)
{
    // The acceptance bar: >= 20 seeds, every data structure, and at
    // least three distinct fault profiles represented.
    const auto files = corpus_files();
    EXPECT_GE(files.size(), 20u);

    std::set<std::string> structures;
    std::set<std::string> faults;
    for (const auto& path : files) {
        std::ifstream in(path);
        std::stringstream buffer;
        buffer << in.rdbuf();
        FuzzCase c;
        std::string error;
        ASSERT_TRUE(FuzzCase::from_json(buffer.str(), &c, &error))
            << path << ": " << error;
        if (c.mode == "workload") {
            structures.insert(c.ds);
        }
        faults.insert(c.fault);
    }
    EXPECT_EQ(structures.size(), kNumFuzzDataStructures);
    EXPECT_GE(faults.size(), 3u);
}

TEST(FuzzCorpus, EveryReproducerPasses)
{
    for (const auto& path : corpus_files()) {
        std::ifstream in(path);
        std::stringstream buffer;
        buffer << in.rdbuf();
        FuzzCase c;
        std::string error;
        ASSERT_TRUE(FuzzCase::from_json(buffer.str(), &c, &error))
            << path << ": " << error;
        const FuzzResult result = run_case(c);
        EXPECT_TRUE(result.ok)
            << path.filename() << ": " << result.message << " ("
            << result.violations << " violation(s))";
    }
}

TEST(FuzzCase, JsonRoundTrips)
{
    FuzzCase c;
    c.seed = 424242;
    c.mode = "program";
    c.ds = "bptree";
    c.fault = "chaos";
    c.ops = 17;
    c.concurrency = 3;
    c.nodes = 4;

    FuzzCase parsed;
    std::string error;
    ASSERT_TRUE(FuzzCase::from_json(c.to_json(), &parsed, &error))
        << error;
    EXPECT_EQ(parsed.seed, c.seed);
    EXPECT_EQ(parsed.mode, c.mode);
    EXPECT_EQ(parsed.ds, c.ds);
    EXPECT_EQ(parsed.fault, c.fault);
    EXPECT_EQ(parsed.ops, c.ops);
    EXPECT_EQ(parsed.concurrency, c.concurrency);
    EXPECT_EQ(parsed.nodes, c.nodes);

    // Whitespace / key order tolerated; junk rejected.
    FuzzCase tolerant;
    ASSERT_TRUE(FuzzCase::from_json(
        "{ \"mode\": \"workload\" , \"seed\": 9 }", &tolerant,
        &error));
    EXPECT_EQ(tolerant.seed, 9u);
    EXPECT_FALSE(FuzzCase::from_json("not json", &parsed, &error));
    EXPECT_FALSE(FuzzCase::from_json("{\"mode\": \"bogus\"}", &parsed,
                                     &error));

    // A number that overflows its field, a key whose value is not a
    // number, or a name outside its list is rejected with an error
    // naming the key.
    const std::pair<const char*, const char*> bad[] = {
        {"seed", "123456789012345678901"},
        {"seed", "18446744073709551616"},
        {"nodes", "4294967298"},
        {"nodes", "4294967296"},
        {"nodes", "-1"},
        {"ops", "\"x\""},
        {"concurrency", "1e3"},
        {"forks", "2.5"},
        {"fork_depth", "true"},
        {"tenants", ""},
        {"ds", "5"},
        {"ds", "\"tree\""},
        {"fault", "\"storm\""},
        {"fault", "true"},
    };
    for (const auto& [key, value] : bad) {
        const std::string seed =
            std::string(key) == "seed" ? "" : "\"seed\": 7, ";
        const std::string json = "{\"mode\": \"workload\", " + seed +
                                 "\"" + key + "\": " + value + "}";
        error.clear();
        EXPECT_FALSE(FuzzCase::from_json(json, &parsed, &error)) << json;
        EXPECT_NE(error.find("\"" + std::string(key) + "\""),
                  std::string::npos)
            << json << ": " << error;
    }
    // The largest values that fit still parse.
    ASSERT_TRUE(FuzzCase::from_json(
        "{\"mode\": \"workload\", \"seed\": 18446744073709551615, "
        "\"nodes\": 4294967295}",
        &parsed, &error))
        << error;
    EXPECT_EQ(parsed.seed, UINT64_MAX);
    EXPECT_EQ(parsed.nodes, UINT32_MAX);
}

TEST(FuzzCase, PlaneFieldsRoundTripAndRejectBadValues)
{
    // Absent plane fields stay out of the JSON, so pre-plane
    // reproducers keep their exact encoding.
    FuzzCase plain;
    EXPECT_EQ(plain.to_json().find("placement"), std::string::npos);
    EXPECT_EQ(plain.to_json().find("replication"), std::string::npos);
    EXPECT_EQ(plain.to_json().find("slab_bytes"), std::string::npos);

    FuzzCase c;
    c.seed = 4292;
    c.placement = "elastic";
    c.replication = "k2";
    c.slab_bytes = 4096;
    FuzzCase parsed;
    std::string error;
    ASSERT_TRUE(FuzzCase::from_json(c.to_json(), &parsed, &error))
        << error;
    EXPECT_EQ(parsed.placement, "elastic");
    EXPECT_EQ(parsed.replication, "k2");
    EXPECT_EQ(parsed.slab_bytes, 4096u);
    EXPECT_EQ(parsed.to_json(), c.to_json());

    for (const char* mode : kFuzzPlacements) {
        ASSERT_TRUE(FuzzCase::from_json(
            std::string("{\"mode\": \"workload\", \"seed\": 1, "
                        "\"placement\": \"") + mode + "\"}",
            &parsed, &error))
            << error;
        EXPECT_EQ(parsed.placement, mode);
    }
    ASSERT_TRUE(FuzzCase::from_json(
        "{\"mode\": \"workload\", \"seed\": 1, \"slab_bytes\": 33554432}",
        &parsed, &error))
        << error;
    EXPECT_EQ(parsed.slab_bytes, kFuzzMaxSlabBytes);

    // A value that does not parse is an error naming its key.
    const std::pair<const char*, const char*> bad[] = {
        {"placement", "\"dynamic\""},
        {"placement", "2"},
        {"placement", "\"\""},
        {"replication", "\"k4\""},
        {"replication", "true"},
        {"slab_bytes", "4095"},
        {"slab_bytes", "2048"},
        {"slab_bytes", "12288"},
        {"slab_bytes", "67108864"},
        {"slab_bytes", "\"4096\""},
        {"slab_bytes", "-4096"},
    };
    for (const auto& [key, value] : bad) {
        const std::string json = "{\"mode\": \"workload\", \"seed\": 7, \"" +
                                 std::string(key) + "\": " + value + "}";
        error.clear();
        EXPECT_FALSE(FuzzCase::from_json(json, &parsed, &error)) << json;
        EXPECT_NE(error.find("\"" + std::string(key) + "\""),
                  std::string::npos)
            << json << ": " << error;
    }
}

TEST(FuzzGenerator, RandomCasesAreDeterministic)
{
    for (std::uint64_t seed = 1; seed <= 16; seed++) {
        const FuzzCase a = random_case(seed);
        const FuzzCase b = random_case(seed);
        EXPECT_EQ(a.to_json(), b.to_json());
    }
    // Programs likewise: same seed, same bytes — and always valid.
    for (std::uint64_t seed = 1; seed <= 16; seed++) {
        const isa::Program a = random_program(seed);
        const isa::Program b = random_program(seed);
        EXPECT_EQ(a, b);
        std::string error;
        EXPECT_TRUE(a.verify(&error)) << "seed " << seed << ": " << error;
    }
}

}  // namespace
}  // namespace pulse::check
