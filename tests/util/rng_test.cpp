#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <vector>

namespace mobirescue::util {
namespace {

TEST(SplitMix64Test, MatchesReferenceValues) {
  EXPECT_EQ(SplitMix64(0), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(SplitMix64(0x9E3779B97F4A7C15ULL), 0x6E789E6AA1B965F4ULL);
  static_assert(SplitMix64(0) == 0xE220A8397B1DCDAFULL);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.UniformInt(0, 1000000) == b.UniformInt(0, 1000000)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Uniform(2.5, 3.5);
    EXPECT_GE(x, 2.5);
    EXPECT_LT(x, 3.5);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.UniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo = saw_lo || v == 0;
    saw_hi = saw_hi || v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(9);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-0.5));
    EXPECT_TRUE(rng.Bernoulli(1.5));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal(5.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(RngTest, PoissonMean) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Poisson(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.1);
  EXPECT_EQ(rng.Poisson(0.0), 0);
  EXPECT_EQ(rng.Poisson(-1.0), 0);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(19);
  const std::array<double, 3> weights = {0.0, 1.0, 3.0};
  std::array<int, 3> counts{};
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.WeightedIndex(std::span<const double>(weights))];
  }
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.25);
}

TEST(RngTest, WeightedIndexAllZeroFallsBackToUniform) {
  Rng rng(23);
  const std::array<double, 4> weights = {0.0, 0.0, 0.0, 0.0};
  std::array<int, 4> counts{};
  for (int i = 0; i < 8000; ++i) {
    ++counts[rng.WeightedIndex(std::span<const double>(weights))];
  }
  for (int c : counts) EXPECT_GT(c, 1500);
}

TEST(RngTest, WeightedIndexRejectsBadInput) {
  Rng rng(29);
  EXPECT_THROW(rng.WeightedIndex({}), std::invalid_argument);
  const std::array<double, 2> negative = {1.0, -0.5};
  EXPECT_THROW(rng.WeightedIndex(std::span<const double>(negative)),
               std::invalid_argument);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(31);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(101);
  Rng child = a.Fork();
  // The child should not replay the parent's stream.
  Rng b(101);
  b.Fork();
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (child.UniformInt(0, 1 << 30) == a.UniformInt(0, 1 << 30)) ++same;
  }
  EXPECT_LT(same, 3);
}

}  // namespace
}  // namespace mobirescue::util
