// Unit tests for the deterministic RNG (GA reproducibility depends on it).
#include "util/rng.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <vector>

namespace ccfuzz {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    equal += a.next_u64() == b.next_u64() ? 1 : 0;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10'000; ++i) {
    const double x = r.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
  }
}

TEST(Rng, UniformIntStaysInRangeInclusive) {
  Rng r(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 20'000; ++i) {
    const std::int64_t v = r.uniform_int(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng r(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(r.uniform_int(5, 5), 5);
  }
}

TEST(Rng, UniformIntIsRoughlyUniform) {
  Rng r(17);
  std::vector<int> counts(10, 0);
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    counts[static_cast<std::size_t>(r.uniform_int(0, 9))]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 100);  // within 10% relative
  }
}

TEST(Rng, UniformIntHandlesSpansAboveTwoToThe63) {
  // hi - lo overflows int64 here; the sanitizer build traps signed
  // overflow, so these draws must stay in unsigned arithmetic.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  Rng r(29);
  bool saw_negative = false, saw_positive = false;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = r.uniform_int(kMin, kMax);  // span 2^64 (wraps to 0)
    saw_negative |= v < 0;
    saw_positive |= v > 0;
  }
  EXPECT_TRUE(saw_negative);
  EXPECT_TRUE(saw_positive);
  // n = 2^63 + 1: [-2^62, 2^62] and [kMin, 0].
  bool saw_high_half = false;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = r.uniform_int(-(1LL << 62), 1LL << 62);
    ASSERT_GE(v, -(1LL << 62));
    ASSERT_LE(v, 1LL << 62);
    const std::int64_t w = r.uniform_int(kMin, 0);
    ASSERT_LE(w, 0);
    saw_high_half |= w > kMin / 2;
  }
  EXPECT_TRUE(saw_high_half);
  // The extremes themselves are reachable as degenerate ranges.
  EXPECT_EQ(r.uniform_int(kMin, kMin), kMin);
  EXPECT_EQ(r.uniform_int(kMax, kMax), kMax);
}

TEST(Rng, UniformIntSequenceIsPinnedAcrossRejections) {
  // Spans are chosen so the rejection step of bounded() actually runs:
  // for a span n, draws below (2^64 - n) % n are redrawn. n = 0x6000...01
  // rejects about a quarter of draws, 2^62 + 1 and (2^64 / 3) + 1 about a
  // quarter and a third, 2^63 never and 10 almost never. Every generated
  // genome goes through this path, so the values are pinned exactly.
  struct Span {
    std::int64_t lo, hi;
  };
  const Span spans[] = {
      {0, 0x6000'0000'0000'0000LL},                 // n = 0x6000...01
      {-(1LL << 61), (1LL << 61)},                  // n = 2^62 + 1
      {0, 0x5555'5555'5555'5555LL},                 // n = 2^64 / 3 + 1
      {-(1LL << 62), (1LL << 62) - 1},              // n = 2^63
      {1, 10},
  };
  Rng r(2024);
  std::vector<std::int64_t> got;
  for (int round = 0; round < 4; ++round) {
    for (const Span& s : spans) got.push_back(r.uniform_int(s.lo, s.hi));
  }
  const std::vector<std::int64_t> want = {
      592210081873530979LL,  -1869570322825082204LL, 1125296687617217106LL,
      129261143478860652LL,  6,                      6370487944993047519LL,
      1046473583588109184LL, 3972148873584413658LL,  2145813767037329269LL,
      2,                     5123163514309370597LL,  -1198046072990227418LL,
      1265254493624466125LL, -1859335505155235311LL, 4,
      805439057211643637LL,  1937291686524021602LL,  3117139366278825699LL,
      -177903722844992484LL, 10};
  EXPECT_EQ(got, want);

  // The 20 outputs consumed 29 raw draws: nine were rejected.
  Rng raw(2024);
  int draws = 0;
  while (raw.state() != r.state()) {
    (void)raw.next_u64();
    ++draws;
    ASSERT_LT(draws, 1000);
  }
  EXPECT_EQ(draws, 29);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng r(19);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, GaussianMomentsAreSane) {
  Rng r(23);
  double sum = 0.0, sq = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const double x = r.gaussian(5.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, ForkProducesIndependentDeterministicStreams) {
  Rng base(99);
  Rng f1 = base.fork(1);
  Rng f2 = base.fork(2);
  Rng f1b = Rng(99).fork(1);
  // Same (seed, stream) → same sequence.
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(f1.next_u64(), f1b.next_u64());
  }
  // Different streams → different sequences.
  Rng g1 = base.fork(1);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    equal += g1.next_u64() == f2.next_u64() ? 1 : 0;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForkDoesNotPerturbParent) {
  Rng a(5), b(5);
  (void)a.fork(123);
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(SplitMix64, KnownFixpointFreeProgression) {
  std::uint64_t s = 0;
  const std::uint64_t v1 = splitmix64(s);
  const std::uint64_t v2 = splitmix64(s);
  EXPECT_NE(v1, v2);
  EXPECT_NE(v1, 0u);
  // Reference value for seed 0 (first splitmix64 output).
  EXPECT_EQ(v1, 0xE220A8397B1DCDAFULL);
}

TEST(ForkSeed, DistinctStreamsDistinctSeeds) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seeds.insert(fork_seed(42, i));
  }
  EXPECT_EQ(seeds.size(), 1000u);
}

}  // namespace
}  // namespace ccfuzz
