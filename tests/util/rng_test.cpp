#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

namespace hyperdrive::util {
namespace {

TEST(SplitMix64Test, AdvancesStateAndProducesDistinctValues) {
  std::uint64_t state = 1;
  const auto a = splitmix64(state);
  const auto b = splitmix64(state);
  EXPECT_NE(a, b);
  EXPECT_NE(state, 1u);
}

TEST(DeriveSeedTest, IsDeterministic) {
  EXPECT_EQ(derive_seed(42, 7), derive_seed(42, 7));
}

TEST(DeriveSeedTest, NearbyStreamsAreUncorrelated) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 1000; ++s) seeds.insert(derive_seed(42, s));
  EXPECT_EQ(seeds.size(), 1000u);
}

TEST(RngTest, SameSeedSameSequence) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedDifferentSequence) {
  Rng a(123), b(124);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next() == b.next();
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespected) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformMeanIsCentered) {
  Rng rng(99);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(RngTest, UniformIntInclusiveBoundsAndFullCoverage) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(2, 9);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 9);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 8u);  // all 8 values hit
}

TEST(RngTest, UniformIntDegenerateRange) {
  Rng rng(5);
  EXPECT_EQ(rng.uniform_int(4, 4), 4);
  EXPECT_EQ(rng.uniform_int(7, 3), 7);  // hi < lo clamps to lo
}

TEST(RngTest, NormalMoments) {
  Rng rng(11);
  constexpr int kN = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / kN;
  const double var = sum2 / kN - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, NormalShiftScale) {
  Rng rng(13);
  constexpr int kN = 100000;
  double sum = 0.0;
  for (int i = 0; i < kN; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / kN, 10.0, 0.05);
}

TEST(RngTest, LognormalIsPositive) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(rng.lognormal(0.0, 1.0), 0.0);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(19);
  constexpr int kN = 100000;
  double sum = 0.0;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / kN, 0.5, 0.02);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(31);
  const std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) ++counts[rng.categorical(weights)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(kN), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(kN), 0.3, 0.01);
  EXPECT_NEAR(counts[3] / static_cast<double>(kN), 0.6, 0.01);
}

TEST(RngTest, CategoricalAllZeroWeightsFallsBackToUniform) {
  Rng rng(37);
  const std::vector<double> weights = {0.0, 0.0, 0.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 30000; ++i) ++counts[rng.categorical(weights)];
  for (int c : counts) EXPECT_GT(c, 8000);
}

TEST(RngTest, CategoricalEmptyReturnsZero) {
  Rng rng(41);
  EXPECT_EQ(rng.categorical({}), 0u);
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng rng(43);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, StateRestoreContinuesTheExactSequence) {
  // Checkpoint support: a restored generator must continue the stream as if
  // the capture never happened — including the cached Box-Muller spare an
  // in-flight normal() leaves behind.
  Rng rng(123);
  for (int i = 0; i < 17; ++i) (void)rng.next();
  (void)rng.normal();  // odd draw: the spare deviate is now cached

  const RngState snap = rng.state();
  std::vector<double> expected;
  for (int i = 0; i < 32; ++i) expected.push_back(rng.normal());
  for (int i = 0; i < 8; ++i) expected.push_back(rng.uniform());

  Rng resumed(999);  // deliberately different start
  resumed.restore(snap);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const double got = i < 32 ? resumed.normal() : resumed.uniform();
    EXPECT_EQ(got, expected[i]) << "draw " << i;
  }

  // Round-trip identity: capture/restore is a no-op on the stream.
  const RngState again = resumed.state();
  Rng twin(1);
  twin.restore(again);
  EXPECT_EQ(twin.next(), resumed.next());
}

}  // namespace
}  // namespace hyperdrive::util
