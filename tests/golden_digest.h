/**
 * @file
 * Checkpoint-format goldens: the FNV-1a digest of a checkpoint blob is
 * compared with its line in tests/goldens/checkpoint.digests, so any
 * change to field order, width or tags fails a test instead of
 * silently changing the format. Every call also prints the digest as
 * "checkpoint digest: <hex>  <name>", which tests/goldens/regen.sh
 * collects to rewrite the file after an intended format change.
 */
#ifndef PULSE_TESTS_GOLDEN_DIGEST_H
#define PULSE_TESTS_GOLDEN_DIGEST_H

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace pulse::testing {

inline void
expect_golden_digest(const std::string& name,
                     const std::vector<std::uint8_t>& blob)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::uint8_t byte : blob) {
        h = (h ^ byte) * 0x100000001b3ull;
    }
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(h));
    std::printf("checkpoint digest: %s  %s\n", hex, name.c_str());

    std::ifstream in(std::string(PULSE_GOLDEN_DIR) +
                     "/checkpoint.digests");
    ASSERT_TRUE(in.good()) << "missing tests/goldens/checkpoint.digests";
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string golden;
        std::string golden_name;
        if (fields >> golden >> golden_name && golden_name == name) {
            EXPECT_EQ(hex, golden)
                << "checkpoint blob '" << name << "' (" << blob.size()
                << " bytes) moved from its golden digest; if the format "
                   "changed on purpose, run tests/goldens/regen.sh and "
                   "name the change in CHANGES.md";
            return;
        }
    }
    ADD_FAILURE() << "no golden digest named '" << name << "'";
}

}  // namespace pulse::testing

#endif  // PULSE_TESTS_GOLDEN_DIGEST_H
