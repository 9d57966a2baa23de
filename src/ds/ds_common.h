/**
 * @file
 * Shared conventions of the pulse data-structure library.
 *
 * All adapted structures (paper section 3 + supplementary Table 3) lay
 * their nodes out in disaggregated memory through ClusterAllocator and
 * build programs whose aggregated LOAD footprint fits the accelerator's
 * 256 B limit. Keys are 64-bit; payloads are either inline 64-bit words
 * or pointers to out-of-line value objects.
 */
#ifndef PULSE_DS_DS_COMMON_H
#define PULSE_DS_DS_COMMON_H

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "common/units.h"

namespace pulse::offload {
struct Completion;
}  // namespace pulse::offload

namespace pulse::ds {

/**
 * Sentinel written into the result slot of a find()'s scratch_pad when
 * the key does not exist (Listing 3's KEY_NOT_FOUND).
 */
inline constexpr std::uint64_t kKeyNotFound = 0xDEADBEEFDEADBEEFull;

/**
 * Padding key for unused slots in bulk-built B+Tree leaves: INT64_MAX,
 * so it sorts after every legal key under the ISA's signed COMPARE.
 * Real keys must stay below this value.
 */
inline constexpr std::uint64_t kPadKey = 0x7FFFFFFFFFFFFFFFull;

/**
 * Deterministic value-object generator: fills @p out with a pattern
 * derived from @p key so integrity can be verified after traversals
 * without storing expected values host-side.
 */
void fill_value_pattern(std::uint64_t key, std::uint8_t* out, Bytes len);

/** First 8 bytes of the pattern (what programs fold or return). */
std::uint64_t value_pattern_word(std::uint64_t key);

/** 64-bit mix used as the hash function of the hash-table adapters. */
std::uint64_t mix64(std::uint64_t key);

/** The u64 at @p off in a completion's scratch_pad (0 if it is short). */
std::uint64_t scratch_word(const offload::Completion& completion,
                           std::uint32_t off);

}  // namespace pulse::ds

#endif  // PULSE_DS_DS_COMMON_H
