/**
 * @file
 * Digest goldens: the FNV-1a digest of a byte blob is compared with its
 * line in a digests file under tests/goldens/, so any change to the
 * bytes fails a test instead of passing silently. Two files use it:
 *
 *   - checkpoint.digests: checkpoint blobs, so a change to field
 *     order, width or tags is caught;
 *   - program.digests: encoded ISA programs of the data-structure
 *     adapters, so a refactor of a program builder must emit the same
 *     instructions.
 *
 * Every call prints "<kind> digest: <hex>  <name>" (kind = file stem).
 * tests/goldens/regen.sh collects the checkpoint lines to rewrite that
 * file after an intended format change; the program digests are an
 * identity gate and have no regeneration step.
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
                     const std::vector<std::uint8_t>& blob,
                     const std::string& kind = "checkpoint")
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::uint8_t byte : blob) {
        h = (h ^ byte) * 0x100000001b3ull;
    }
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(h));
    std::printf("%s digest: %s  %s\n", kind.c_str(), hex, name.c_str());

    const std::string file = kind + ".digests";
    std::ifstream in(std::string(PULSE_GOLDEN_DIR) + "/" + file);
    ASSERT_TRUE(in.good()) << "missing tests/goldens/" << file;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string golden;
        std::string golden_name;
        if (fields >> golden >> golden_name && golden_name == name) {
            EXPECT_EQ(hex, golden)
                << kind << " blob '" << name << "' (" << blob.size()
                << " bytes) moved from its golden digest in " << file
                << "; if the bytes changed on purpose, regenerate the "
                   "file and name the change in CHANGES.md";
            return;
        }
    }
    ADD_FAILURE() << "no golden digest named '" << name << "' in "
                  << file;
}

}  // namespace pulse::testing

#endif  // PULSE_TESTS_GOLDEN_DIGEST_H
