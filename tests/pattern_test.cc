#include "src/signal/pattern.h"

#include <gtest/gtest.h>

#include "src/trace/generators.h"
#include "src/trace/utilization_trace.h"

namespace harvest {
namespace {

TEST(PatternTest, NamesAreStable) {
  EXPECT_STREQ(PatternName(UtilizationPattern::kPeriodic), "periodic");
  EXPECT_STREQ(PatternName(UtilizationPattern::kConstant), "constant");
  EXPECT_STREQ(PatternName(UtilizationPattern::kUnpredictable), "unpredictable");
}

TEST(PatternTest, FlatSeriesIsConstant) {
  PatternClassifier classifier;
  std::vector<double> series(kSlotsPerDay * 7, 0.3);
  EXPECT_EQ(classifier.Classify(ComputeFrequencyProfile(series)), UtilizationPattern::kConstant);
}

TEST(PatternTest, DiurnalSeriesIsPeriodic) {
  PatternClassifier classifier;
  std::vector<double> series(kSlotsPerMonth);
  for (size_t i = 0; i < series.size(); ++i) {
    series[i] = 0.4 + 0.2 * std::sin(2.0 * M_PI * static_cast<double>(i) / kSlotsPerDay);
  }
  EXPECT_EQ(classifier.Classify(ComputeFrequencyProfile(series)), UtilizationPattern::kPeriodic);
}

TEST(PatternTest, RandomWalkIsUnpredictable) {
  PatternClassifier classifier;
  Rng rng(5);
  UnpredictableTraceParams params;
  params.walk_stddev = 0.03;
  params.burst_rate_per_day = 2.0;
  UtilizationTrace trace = GenerateUnpredictableTrace(params, kSlotsPerMonth, rng);
  EXPECT_EQ(classifier.Classify(ComputeFrequencyProfile(trace.samples())),
            UtilizationPattern::kUnpredictable);
}

// Calibration property: the classifier recovers the generator's ground truth
// across seeds for each synthetic family (this is the Fig 2/3 pipeline).
class PatternRecoveryTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PatternRecoveryTest, RecoversPeriodicGenerator) {
  Rng rng(GetParam());
  PeriodicTraceParams params;
  params.daily_amplitude = 0.18;
  UtilizationTrace trace = GeneratePeriodicTrace(params, kSlotsPerMonth, rng);
  PatternClassifier classifier;
  EXPECT_EQ(classifier.Classify(ComputeFrequencyProfile(trace.samples())),
            UtilizationPattern::kPeriodic);
}

TEST_P(PatternRecoveryTest, RecoversConstantGenerator) {
  Rng rng(GetParam());
  ConstantTraceParams params;
  UtilizationTrace trace = GenerateConstantTrace(params, kSlotsPerMonth, rng);
  PatternClassifier classifier;
  EXPECT_EQ(classifier.Classify(ComputeFrequencyProfile(trace.samples())),
            UtilizationPattern::kConstant);
}

TEST_P(PatternRecoveryTest, RecoversUnpredictableGenerator) {
  Rng rng(GetParam());
  UnpredictableTraceParams params;
  params.walk_stddev = 0.025;
  params.burst_rate_per_day = 1.5;
  params.burst_height = 0.5;
  UtilizationTrace trace = GenerateUnpredictableTrace(params, kSlotsPerMonth, rng);
  PatternClassifier classifier;
  EXPECT_EQ(classifier.Classify(ComputeFrequencyProfile(trace.samples())),
            UtilizationPattern::kUnpredictable);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PatternRecoveryTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

TEST(PatternTest, ThresholdsAreHonored) {
  // Tighten the constant threshold: a mildly noisy series flips class.
  std::vector<double> series(kSlotsPerMonth);
  Rng rng(3);
  for (auto& v : series) {
    v = 0.3 + rng.Normal(0.0, 0.03);
  }
  PatternClassifierOptions strict;
  strict.constant_stddev_threshold = 0.005;
  PatternClassifierOptions loose;
  loose.constant_stddev_threshold = 0.10;
  EXPECT_EQ(PatternClassifier(strict).Classify(ComputeFrequencyProfile(series)),
            UtilizationPattern::kUnpredictable);
  EXPECT_EQ(PatternClassifier(loose).Classify(ComputeFrequencyProfile(series)),
            UtilizationPattern::kConstant);
}

}  // namespace
}  // namespace harvest
