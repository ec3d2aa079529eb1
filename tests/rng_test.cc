#include "src/util/rng.h"

#include <algorithm>
#include <gtest/gtest.h>
#include <numeric>

namespace harvest {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differences = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() != b.Next()) {
      ++differences;
    }
  }
  EXPECT_GT(differences, 95);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextBoundedRespectsBound) {
  Rng rng(9);
  for (uint64_t bound : {1ULL, 2ULL, 7ULL, 100ULL, 1000000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, NextBoundedZeroReturnsZero) {
  Rng rng(9);
  EXPECT_EQ(rng.NextBounded(0), 0u);
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.UniformInt(3, 6);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 6);
    saw_lo |= (v == 3);
    saw_hi |= (v == 6);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformIntDegenerateRange) {
  Rng rng(1);
  EXPECT_EQ(rng.UniformInt(5, 5), 5);
  EXPECT_EQ(rng.UniformInt(5, 4), 5);
}

TEST(RngTest, NormalMeanAndStddev) {
  Rng rng(13);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Exponential(0.5);
  }
  EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(RngTest, PoissonMeanSmallAndLarge) {
  Rng rng(19);
  for (double mean : {0.5, 3.0, 200.0}) {
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
      sum += static_cast<double>(rng.Poisson(mean));
    }
    EXPECT_NEAR(sum / n, mean, mean * 0.05 + 0.05) << "mean=" << mean;
  }
}

TEST(RngTest, PoissonZeroMean) {
  Rng rng(19);
  EXPECT_EQ(rng.Poisson(0.0), 0);
  EXPECT_EQ(rng.Poisson(-1.0), 0);
}

TEST(RngTest, BernoulliProbability) {
  Rng rng(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, WeightedIndexProportions) {
  Rng rng(29);
  std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    int idx = rng.WeightedIndex(weights);
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, 4);
    ++counts[static_cast<size_t>(idx)];
  }
  EXPECT_EQ(counts[2], 0);  // zero weight never selected
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.01);
}

TEST(RngTest, WeightedIndexAllZeroReturnsMinusOne) {
  Rng rng(31);
  std::vector<double> weights = {0.0, 0.0, -1.0};
  EXPECT_EQ(rng.WeightedIndex(weights), -1);
  EXPECT_EQ(rng.WeightedIndex({}), -1);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(37);
  Rng child = parent.Fork();
  // The child stream must not mirror the parent's subsequent outputs.
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.Next() == child.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(41);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> original = v;
  rng.Shuffle(v);
  EXPECT_FALSE(std::equal(v.begin(), v.end(), original.begin()));
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, StableHashIsStableAndSpreads) {
  EXPECT_EQ(StableHash("DC-0"), StableHash("DC-0"));
  EXPECT_NE(StableHash("DC-0"), StableHash("DC-1"));
  EXPECT_NE(StableHash(""), StableHash("a"));
}

// Property sweep: LogNormal medians track exp(mu).
class LogNormalParamTest : public ::testing::TestWithParam<double> {};

TEST_P(LogNormalParamTest, MedianTracksMu) {
  double mu = GetParam();
  Rng rng(47);
  std::vector<double> samples;
  for (int i = 0; i < 20001; ++i) {
    samples.push_back(rng.LogNormal(mu, 0.8));
  }
  std::nth_element(samples.begin(), samples.begin() + 10000, samples.end());
  EXPECT_NEAR(std::log(samples[10000]), mu, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Medians, LogNormalParamTest,
                         ::testing::Values(-2.0, -1.0, 0.0, 0.5, 1.5));

}  // namespace
}  // namespace harvest
