#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <vector>

namespace hinet {
namespace {

TEST(SplitMix64, KnownSequenceIsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(7);
  const auto first = a();
  a.reseed(7);
  EXPECT_EQ(a(), first);
}

TEST(Rng, ZeroSeedIsUsable) {
  Rng a(0);
  // SplitMix expansion must avoid the all-zero xoshiro state.
  bool any_nonzero = false;
  for (int i = 0; i < 8; ++i) {
    if (a() != 0) any_nonzero = true;
  }
  EXPECT_TRUE(any_nonzero);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(13);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.below(bound), bound);
    }
  }
}

TEST(Rng, BelowOneAlwaysZero) {
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(rng.below(1), 0u);
  }
}

TEST(Rng, BelowZeroThrows) {
  Rng rng(5);
  EXPECT_THROW(rng.below(0), PreconditionError);
}

TEST(Rng, BelowCoversFullRange) {
  Rng rng(99);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(4));
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntSinglePoint) {
  Rng rng(3);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, UniformIntInvertedRangeThrows) {
  Rng rng(3);
  EXPECT_THROW(rng.uniform_int(2, 1), PreconditionError);
}

TEST(Rng, Uniform01InHalfOpenUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, Uniform01MeanIsRoughlyHalf) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(23);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ShuffleSmallVectorsNoop) {
  Rng rng(31);
  std::vector<int> empty;
  std::vector<int> one{42};
  rng.shuffle(empty);
  rng.shuffle(one);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(one, std::vector<int>{42});
}

TEST(Rng, SampleDistinctAndInRange) {
  Rng rng(37);
  const auto s = rng.sample(10, 6);
  EXPECT_EQ(s.size(), 6u);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 6u);
  for (auto x : s) EXPECT_LT(x, 10u);
}

TEST(Rng, SampleWholePopulation) {
  Rng rng(41);
  const auto s = rng.sample(5, 5);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 5u);
}

TEST(Rng, SampleTooLargeThrows) {
  Rng rng(41);
  EXPECT_THROW(rng.sample(3, 4), PreconditionError);
}

TEST(Rng, PickFromEmptyThrows) {
  Rng rng(1);
  std::vector<int> empty;
  EXPECT_THROW(rng.pick(empty), PreconditionError);
}

TEST(Rng, ForkDecorrelatesFromParent) {
  Rng parent(55);
  Rng child = parent.fork();
  // Child and parent streams should differ immediately.
  EXPECT_NE(parent(), child());
}

TEST(Rng, ForksFromSameStateAreReproducible) {
  Rng a(55);
  Rng b(55);
  Rng ca = a.fork();
  Rng cb = b.fork();
  for (int i = 0; i < 20; ++i) EXPECT_EQ(ca(), cb());
}

/// Exact draws from fixed seeds, recorded while below, uniform01 and
/// bernoulli were still defined out of line in rng.cpp: moving them
/// inline must not move a single draw.  The lists print themselves on a
/// mismatch so a deliberate change of a distribution can re-record them.
template <typename T>
std::string listing(const std::vector<T>& v) {
  std::ostringstream os;
  os << "{";
  for (const T& x : v) os << "0x" << std::hex << std::uint64_t{x} << "u, ";
  os << "}";
  return os.str();
}

TEST(Rng, RecordedDrawSequences) {
  // below: small, power-of-two, odd and near-2^64 bounds; the bounds just
  // above 2^63 reject about half their first draws.
  Rng rng(0x9e37);
  std::vector<std::uint64_t> below;
  for (std::uint64_t bound :
       {1ULL, 2ULL, 3ULL, 7ULL, 10ULL, 1000ULL, (1ULL << 32) + 1,
        (1ULL << 63) + 3, (1ULL << 63) + 1, ~0ULL}) {
    for (int i = 0; i < 3; ++i) below.push_back(rng.below(bound));
  }
  const std::vector<std::uint64_t> kBelow = {
      0x0u, 0x0u, 0x0u, 0x0u, 0x1u, 0x0u, 0x1u, 0x1u, 0x0u, 0x6u, 0x6u, 0x0u,
      0x6u, 0x9u, 0x8u, 0x12u, 0x358u, 0x37fu, 0xb3f1fa2u, 0x48716f19u,
      0x1920b540u, 0x1a9973ca44e48971u, 0x7b0e5da688c78767u,
      0x1a6fbd04d4bf3faau, 0x3ea565b2b8048bbau, 0x318ab66b42a8dd55u,
      0x5c69c7794e21c8c4u, 0x41f544e396a08a16u, 0xb6b06d1da0a36377u,
      0xd59cfaa3e080a8fbu};
  EXPECT_EQ(below, kBelow) << listing(below);

  // uniform01, as bit patterns: an exact double compare.
  std::vector<std::uint64_t> unit;
  for (int i = 0; i < 8; ++i) {
    unit.push_back(std::bit_cast<std::uint64_t>(rng.uniform01()));
  }
  const std::vector<std::uint64_t> kUniform01 = {
      0x3fd0b02728597478u, 0x3fef24abca30005fu, 0x3fb5274e11652070u,
      0x3feafa2c0bbb2178u, 0x3fcd2fb9a230907cu, 0x3fd93bc11d954326u,
      0x3fc12d7325202948u, 0x3faa342bf3cbed20u};
  EXPECT_EQ(unit, kUniform01) << listing(unit);

  // bernoulli: 16 trials per p packed into a mask, then one raw draw so
  // the recorded value also pins how many draws each p consumed.
  const double ps[] = {0.0,
                       1e-300,
                       0.1,
                       0.5,
                       1.0 - 0x1.0p-53,
                       1.0,
                       std::numeric_limits<double>::quiet_NaN()};
  std::vector<std::uint64_t> coins;
  for (double p : ps) {
    std::uint64_t mask = 0;
    for (int i = 0; i < 16; ++i) {
      if (rng.bernoulli(p)) mask |= 1ULL << i;
    }
    coins.push_back(mask);
    coins.push_back(rng());
  }
  const std::vector<std::uint64_t> kBernoulli = {
      0x0u, 0x4d54780b29b14f46u, 0x0u, 0x314f9f1831de66bcu, 0x2402u,
      0x41b3054726f02b24u, 0x64eau, 0xfc6786e9338171b9u, 0xffffu,
      0xcf79986768e58d6u, 0xffffu, 0xf39f564444d7de7u, 0x0u,
      0x99b8281010220947u};
  EXPECT_EQ(coins, kBernoulli) << listing(coins);

  // pick, shuffle and sample, which all draw through below.
  const std::vector<std::uint32_t> pool = {11, 22, 33, 44, 55, 66, 77};
  std::vector<std::uint32_t> picks;
  for (int i = 0; i < 8; ++i) picks.push_back(rng.pick(pool));
  const std::vector<std::uint32_t> kPick = {
      0x2cu, 0x37u, 0x21u, 0x4du, 0x42u, 0x2cu, 0xbu, 0x16u};
  EXPECT_EQ(picks, kPick) << listing(picks);

  std::vector<std::uint32_t> order(12);
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);
  const std::vector<std::uint32_t> kShuffle = {
      0x4u, 0xbu, 0x2u, 0x0u, 0x1u, 0xau, 0x8u, 0x7u, 0x5u, 0x9u, 0x3u, 0x6u};
  EXPECT_EQ(order, kShuffle) << listing(order);

  const std::vector<std::size_t> chosen = rng.sample(50, 9);
  const std::vector<std::size_t> kSample = {
      0x14u, 0x7u, 0x4u, 0x1bu, 0x21u, 0x28u, 0x9u, 0x19u, 0x2du};
  EXPECT_EQ(chosen, kSample) << listing(chosen);
}

}  // namespace
}  // namespace hinet
