#include "src/core/job_history.h"

#include <gtest/gtest.h>

namespace harvest {
namespace {

TEST(JobHistoryTest, PaperThresholdsCategorize) {
  // Paper §6.1: jobs shorter than 173 s are short, longer than 433 s long.
  JobTypeThresholds thresholds;
  EXPECT_EQ(thresholds.Categorize(100.0), JobType::kShort);
  EXPECT_EQ(thresholds.Categorize(172.9), JobType::kShort);
  EXPECT_EQ(thresholds.Categorize(173.0), JobType::kMedium);
  EXPECT_EQ(thresholds.Categorize(300.0), JobType::kMedium);
  EXPECT_EQ(thresholds.Categorize(433.0), JobType::kMedium);
  EXPECT_EQ(thresholds.Categorize(433.1), JobType::kLong);
  EXPECT_EQ(thresholds.Categorize(5000.0), JobType::kLong);
}

TEST(JobHistoryTest, UnknownJobDefaultsToMedium) {
  JobHistory history;
  EXPECT_EQ(history.TypeOf("never-seen"), JobType::kMedium);
}

TEST(JobHistoryTest, LastRunDrivesType) {
  JobHistory history;
  history.RecordRun("q1", 100.0);
  EXPECT_EQ(history.TypeOf("q1"), JobType::kShort);
  history.RecordRun("q1", 500.0);
  EXPECT_EQ(history.TypeOf("q1"), JobType::kLong);
}

TEST(JobHistoryTest, JobsTrackedIndependently) {
  JobHistory history;
  history.RecordRun("a", 50.0);
  history.RecordRun("b", 1000.0);
  EXPECT_EQ(history.TypeOf("a"), JobType::kShort);
  EXPECT_EQ(history.TypeOf("b"), JobType::kLong);
}

TEST(JobHistoryTest, ConstructorThresholdsApply) {
  JobTypeThresholds tight;
  tight.short_below = 400.0;
  tight.long_above = 500.0;
  JobHistory history(tight);
  history.RecordRun("q", 300.0);
  EXPECT_EQ(history.TypeOf("q"), JobType::kShort);
}

// Property: a job consistently falls into the same type once its duration
// stabilizes (the paper's observation about the first-guess error).
class JobTypeStabilityTest : public ::testing::TestWithParam<double> {};

TEST_P(JobTypeStabilityTest, RepeatRunsKeepType) {
  JobHistory history;
  double duration = GetParam();
  history.RecordRun("stable", duration);
  JobType first = history.TypeOf("stable");
  for (int run = 0; run < 10; ++run) {
    // Durations vary a little run to run but stay within the band.
    history.RecordRun("stable", duration * (0.95 + 0.01 * run));
    EXPECT_EQ(history.TypeOf("stable"), first);
  }
}

INSTANTIATE_TEST_SUITE_P(Durations, JobTypeStabilityTest,
                         ::testing::Values(50.0, 120.0, 250.0, 600.0, 2000.0));

}  // namespace
}  // namespace harvest
