#include "ds/ds_common.h"

#include <cstring>

#include "offload/offload_engine.h"

namespace pulse::ds {

std::uint64_t
mix64(std::uint64_t key)
{
    std::uint64_t z = key + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
value_pattern_word(std::uint64_t key)
{
    return mix64(key ^ 0xC0FFEE);
}

void
fill_value_pattern(std::uint64_t key, std::uint8_t* out, Bytes len)
{
    std::uint64_t word = value_pattern_word(key);
    while (len >= 8) {
        std::memcpy(out, &word, 8);
        out += 8;
        len -= 8;
        word = mix64(word);
    }
    if (len > 0) {
        std::memcpy(out, &word, len);
    }
}

std::uint64_t
scratch_word(const offload::Completion& completion, std::uint32_t off)
{
    if (completion.scratch.size() < off + 8) {
        return 0;
    }
    std::uint64_t word = 0;
    std::memcpy(&word, completion.scratch.data() + off, 8);
    return word;
}

}  // namespace pulse::ds
