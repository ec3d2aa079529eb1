#include "src/jobs/workload.h"

#include <gtest/gtest.h>

namespace harvest {
namespace {

TEST(WorkloadTest, ArrivalsWithinHorizonAndSorted) {
  WorkloadOptions options;
  options.mean_interarrival_seconds = 100.0;
  options.horizon_seconds = 10000.0;
  Rng rng(1);
  auto arrivals = GenerateArrivals(options, 52, rng);
  ASSERT_FALSE(arrivals.empty());
  for (size_t i = 0; i < arrivals.size(); ++i) {
    EXPECT_GT(arrivals[i].time_seconds, 0.0);
    EXPECT_LT(arrivals[i].time_seconds, options.horizon_seconds);
    EXPECT_GE(arrivals[i].query, 0);
    EXPECT_LT(arrivals[i].query, 52);
    if (i > 0) {
      EXPECT_GT(arrivals[i].time_seconds, arrivals[i - 1].time_seconds);
    }
  }
}

TEST(WorkloadTest, PoissonMeanInterarrival) {
  WorkloadOptions options;
  options.mean_interarrival_seconds = 300.0;
  options.horizon_seconds = 3.0e6;  // ~10000 arrivals
  Rng rng(2);
  auto arrivals = GenerateArrivals(options, 10, rng);
  ASSERT_GT(arrivals.size(), 5000u);
  double mean = arrivals.back().time_seconds / static_cast<double>(arrivals.size());
  EXPECT_NEAR(mean, 300.0, 15.0);
}

TEST(WorkloadTest, UniformDrawCoversSuite) {
  WorkloadOptions options;
  options.mean_interarrival_seconds = 5.0;
  options.horizon_seconds = 20000.0;
  Rng rng(4);
  auto arrivals = GenerateArrivals(options, 8, rng);
  std::vector<int> counts(8, 0);
  for (const auto& a : arrivals) {
    ++counts[static_cast<size_t>(a.query)];
  }
  for (int c : counts) {
    EXPECT_GT(c, 0);
  }
}

TEST(WorkloadTest, EmptySuiteYieldsNoArrivals) {
  WorkloadOptions options;
  Rng rng(5);
  EXPECT_TRUE(GenerateArrivals(options, 0, rng).empty());
}

TEST(WorkloadTest, DeterministicGivenSeed) {
  WorkloadOptions options;
  Rng rng_a(6);
  Rng rng_b(6);
  auto a = GenerateArrivals(options, 52, rng_a);
  auto b = GenerateArrivals(options, 52, rng_b);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].time_seconds, b[i].time_seconds);
    EXPECT_EQ(a[i].query, b[i].query);
  }
}

}  // namespace
}  // namespace harvest
