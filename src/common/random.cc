#include "common/random.h"

#include <cmath>

#include "common/logging.h"
#include "common/serial.h"

namespace pulse {
namespace {

std::uint64_t
splitmix64(std::uint64_t& x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

double
zeta(std::uint64_t n, double theta)
{
    double sum = 0.0;
    for (std::uint64_t i = 1; i <= n; i++) {
        sum += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    return sum;
}

}  // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto& word : state_) {
        word = splitmix64(s);
    }
}

std::uint64_t
Rng::next_u64()
{
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

std::uint64_t
Rng::next_below(std::uint64_t bound)
{
    PULSE_ASSERT(bound > 0, "next_below(0)");
    // Lemire's debiased multiply-shift (Lemire 2019, "Fast Random
    // Integer Generation in an Interval"). The plain multiply-shift
    // maps 2^64 values onto `bound` cells, leaving (2^64 mod bound)
    // cells one value over-full; rejecting the first (2^64 mod bound)
    // low-half values of each stripe removes exactly that excess. The
    // cheap `low < bound` pre-test skips the modulo on all but
    // ~bound/2^64 of draws, so for simulator-scale bounds a rejection
    // is astronomically rare and existing seeded streams are
    // unchanged in practice.
    unsigned __int128 m =
        static_cast<unsigned __int128>(next_u64()) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
        const std::uint64_t threshold = -bound % bound;
        while (low < threshold) {
            m = static_cast<unsigned __int128>(next_u64()) * bound;
            low = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

std::uint64_t
Rng::next_range(std::uint64_t lo, std::uint64_t hi)
{
    PULSE_ASSERT(lo <= hi, "next_range lo > hi");
    return lo + next_below(hi - lo + 1);
}

double
Rng::next_double()
{
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

bool
Rng::next_bool(double p)
{
    return next_double() < p;
}

void
Rng::checkpoint(StateIo& io)
{
    for (std::uint64_t& word : state_) {
        io.u64(word);
    }
}

ZipfGenerator::ZipfGenerator(std::uint64_t n, double theta)
    : n_(n), theta_(theta)
{
    PULSE_ASSERT(n > 0, "zipf over empty domain");
    zeta2theta_ = zeta(2, theta);
    zetan_ = zeta(n, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2theta_ / zetan_);
}

std::uint64_t
ZipfGenerator::next(Rng& rng)
{
    const double u = rng.next_double();
    const double uz = u * zetan_;
    if (uz < 1.0) {
        return 0;
    }
    if (uz < 1.0 + std::pow(0.5, theta_)) {
        return 1;
    }
    const auto rank = static_cast<std::uint64_t>(
        static_cast<double>(n_) *
        std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return rank >= n_ ? n_ - 1 : rank;
}

}  // namespace pulse
