// Deterministic random number generation.
//
// The GA's reproducibility guarantee (paper §3.6) requires that every source
// of randomness flows from an explicit seed. We use xoshiro256** seeded via
// splitmix64: fast, high quality, and trivially forkable so each trace /
// island / simulation gets an independent deterministic stream.
#pragma once

#include <array>
#include <cstdint>
#include <cmath>

namespace ccfuzz {

/// splitmix64 step; used for seeding and for hashing seeds together.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Combines a seed with a stream id into a new independent seed.
constexpr std::uint64_t fork_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t s = seed ^ (0x9E3779B97F4A7C15ULL * (stream + 1));
  return splitmix64(s);
}

/// xoshiro256** PRNG. Deterministic, copyable, no global state.
class Rng {
 public:
  /// Constructs from a 64-bit seed (expanded via splitmix64).
  explicit Rng(std::uint64_t seed = 0xC0FFEE123456789ULL) {
    std::uint64_t sm = seed;
    for (auto& w : s_) w = splitmix64(sm);
  }

  /// Returns the next raw 64-bit value.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  /// The span and the sum are computed in uint64 (modulo 2^64), so spans
  /// above 2^63 such as [INT64_MIN, INT64_MAX] cannot overflow.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                     bounded(span));
  }

  /// Uniform double in [lo, hi).
  double uniform_double(double lo, double hi) {
    return lo + (hi - lo) * next_double();
  }

  /// Fair coin toss.
  bool coin() { return (next_u64() & 1) != 0; }

  /// Bernoulli trial with probability p of returning true.
  bool bernoulli(double p) { return next_double() < p; }

  /// Standard normal via Box–Muller (deterministic, no cached spare).
  double gaussian(double mean = 0.0, double stddev = 1.0) {
    double u1 = next_double();
    while (u1 <= 1e-300) u1 = next_double();
    const double u2 = next_double();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    return mean + stddev * mag * std::cos(6.283185307179586 * u2);
  }

  /// Derives an independent child generator for stream `stream`.
  Rng fork(std::uint64_t stream) const {
    return Rng(fork_seed(s_[0] ^ s_[3], stream));
  }

  /// Raw generator state, for checkpointing. Restoring via set_state()
  /// resumes the stream at exactly the next draw.
  std::array<std::uint64_t, 4> state() const {
    return {s_[0], s_[1], s_[2], s_[3]};
  }

  /// Restores state captured by state().
  void set_state(const std::array<std::uint64_t, 4>& s) {
    for (int i = 0; i < 4; ++i) s_[i] = s[i];
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  /// Unbiased bounded sample via rejection (Lemire-style threshold). The
  /// threshold (2^64 - n) % n is below n, so any draw r >= n passes without
  /// it, and the division that computes it runs only for r < n.
  std::uint64_t bounded(std::uint64_t n) {
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= n || r >= (0 - n) % n) return r % n;
    }
  }

  std::uint64_t s_[4]{};
};

}  // namespace ccfuzz
