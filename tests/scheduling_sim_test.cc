#include "src/experiments/scheduling_sim.h"

#include <gtest/gtest.h>

#include "src/cluster/datacenter.h"
#include "src/jobs/tpcds.h"

namespace harvest {
namespace {

// A fast testbed: 42 servers, one day of traces, 1-hour run.
Cluster FastTestbed(uint64_t seed) {
  Rng rng(seed);
  return BuildTestbedCluster(42, kSlotsPerDay, rng);
}

SchedulingSimOptions FastOptions(SchedulerMode mode) {
  SchedulingSimOptions options;
  options.mode = mode;
  options.horizon_seconds = 3600.0;
  options.mean_interarrival_seconds = 120.0;
  options.seed = 5;
  return options;
}

std::vector<JobDag> SmallSuite() {
  // A few queries keep the test fast while exercising multi-stage DAGs.
  auto full = BuildTpcDsSuite(3);
  return {full[0], full[1], full[3], full[4], full[6]};
}

TEST(SchedulingSimTest, JobsCompleteUnderAllModes) {
  Cluster cluster = FastTestbed(1);
  auto suite = SmallSuite();
  for (SchedulerMode mode :
       {SchedulerMode::kStock, SchedulerMode::kPrimaryAware, SchedulerMode::kHistory}) {
    SchedulingSimResult result = RunSchedulingSimulation(cluster, suite, FastOptions(mode));
    EXPECT_GT(result.jobs_arrived, 0) << "mode " << static_cast<int>(mode);
    EXPECT_GT(result.jobs_completed, 0) << "mode " << static_cast<int>(mode);
    EXPECT_LE(result.jobs_completed, result.jobs_arrived);
    EXPECT_GT(result.average_execution_seconds, 0.0);
    for (const auto& job : result.jobs) {
      EXPECT_GE(job.execution_seconds, 0.0);
      EXPECT_LE(job.finish_seconds, FastOptions(mode).horizon_seconds + 1e-6);
      EXPECT_GE(job.arrival_seconds, 0.0);
    }
  }
}

TEST(SchedulingSimTest, StockModeNeverKills) {
  Cluster cluster = FastTestbed(2);
  SchedulingSimResult result =
      RunSchedulingSimulation(cluster, SmallSuite(), FastOptions(SchedulerMode::kStock));
  EXPECT_EQ(result.total_kills, 0);
}

TEST(SchedulingSimTest, HarvestingRaisesUtilization) {
  Cluster cluster = FastTestbed(3);
  SchedulingSimOptions options = FastOptions(SchedulerMode::kPrimaryAware);
  SchedulingSimResult result = RunSchedulingSimulation(cluster, SmallSuite(), options);
  // Total utilization strictly above the primary-only floor.
  EXPECT_GT(result.average_total_utilization, result.average_primary_utilization + 0.01);
}

TEST(SchedulingSimTest, DeterministicForSeed) {
  Cluster cluster = FastTestbed(4);
  auto suite = SmallSuite();
  SchedulingSimOptions options = FastOptions(SchedulerMode::kHistory);
  SchedulingSimResult a = RunSchedulingSimulation(cluster, suite, options);
  SchedulingSimResult b = RunSchedulingSimulation(cluster, suite, options);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_DOUBLE_EQ(a.average_execution_seconds, b.average_execution_seconds);
  EXPECT_EQ(a.total_kills, b.total_kills);
}

TEST(SchedulingSimTest, LatencySeriesCollectedWhenRequested) {
  Cluster cluster = FastTestbed(5);
  SchedulingSimOptions options = FastOptions(SchedulerMode::kPrimaryAware);
  options.collect_latency = true;
  SchedulingSimResult result = RunSchedulingSimulation(cluster, SmallSuite(), options);
  // One sample per minute over an hour (boundary effects allow slack).
  EXPECT_GE(result.p99_series_ms.size(), 55u);
  EXPECT_LE(result.p99_series_ms.size(), 61u);
  for (double p99 : result.p99_series_ms) {
    EXPECT_GT(p99, 200.0);
    EXPECT_LT(p99, 3000.0);
  }
}

// No-Harvesting (Figs 10/12): an empty suite in PT mode with no storage.
TEST(SchedulingSimTest, NoHarvestingBaselineRunsCleanly) {
  Cluster cluster = FastTestbed(6);
  SchedulingSimOptions options = FastOptions(SchedulerMode::kPrimaryAware);
  options.collect_latency = true;
  SchedulingSimResult result = RunSchedulingSimulation(cluster, {}, options);
  EXPECT_EQ(result.jobs_arrived, 0);
  EXPECT_EQ(result.total_kills, 0);
  EXPECT_FALSE(result.p99_series_ms.empty());
  // Pure primary latency stays near the calibrated base.
  for (double p99 : result.p99_series_ms) {
    EXPECT_LT(p99, 700.0);
  }
}

TEST(SchedulingSimTest, StorageVariantsTrackAccesses) {
  Cluster cluster = FastTestbed(7);
  SchedulingSimOptions options = FastOptions(SchedulerMode::kPrimaryAware);
  options.storage = StorageVariant::kPrimaryAware;
  options.storage_blocks = 500;
  SchedulingSimResult result = RunSchedulingSimulation(cluster, SmallSuite(), options);
  EXPECT_GT(result.storage.accesses, 0);
  EXPECT_EQ(result.storage.blocks_created, 500);
}

TEST(SchedulingSimTest, StockStorageInterferesInsteadOfFailing) {
  Cluster cluster = FastTestbed(8);
  SchedulingSimOptions options = FastOptions(SchedulerMode::kStock);
  options.storage = StorageVariant::kStock;
  options.storage_blocks = 500;
  SchedulingSimResult result = RunSchedulingSimulation(cluster, SmallSuite(), options);
  EXPECT_EQ(result.storage.failed_accesses, 0);
}

TEST(SchedulingSimTest, HistoryStorageUsesHistoryPlacement) {
  Cluster cluster = FastTestbed(9);
  SchedulingSimOptions options = FastOptions(SchedulerMode::kHistory);
  options.storage = StorageVariant::kHistory;
  options.storage_blocks = 300;
  SchedulingSimResult result = RunSchedulingSimulation(cluster, SmallSuite(), options);
  EXPECT_EQ(result.storage.blocks_created, 300);
}

TEST(StorageVariantTest, Names) {
  EXPECT_STREQ(StorageVariantName(StorageVariant::kNone), "none");
  EXPECT_STREQ(StorageVariantName(StorageVariant::kStock), "HDFS-Stock");
  EXPECT_STREQ(StorageVariantName(StorageVariant::kPrimaryAware), "HDFS-PT");
  EXPECT_STREQ(StorageVariantName(StorageVariant::kHistory), "HDFS-H");
}

// Integration property: across seeds, history scheduling completes the same
// workload at least as fast on average as the primary-aware baseline (the
// paper's central scheduling claim, Figs 11/13). On tiny testbeds the margin
// is noisy, so a small relative slack is allowed.
class ExecTimeComparisonTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecTimeComparisonTest, HistoryNoSlowerThanPrimaryAware) {
  Rng rng(GetParam());
  Cluster cluster = BuildTestbedCluster(60, kSlotsPerDay * 2, rng);
  auto suite = SmallSuite();
  SchedulingSimOptions pt = FastOptions(SchedulerMode::kPrimaryAware);
  pt.horizon_seconds = 3.0 * 3600.0;
  pt.seed = GetParam();
  SchedulingSimOptions h = pt;
  h.mode = SchedulerMode::kHistory;
  SchedulingSimResult pt_result = RunSchedulingSimulation(cluster, suite, pt);
  SchedulingSimResult h_result = RunSchedulingSimulation(cluster, suite, h);
  ASSERT_GT(pt_result.jobs_completed, 0);
  ASSERT_GT(h_result.jobs_completed, 0);
  EXPECT_LE(h_result.average_execution_seconds,
            pt_result.average_execution_seconds * 1.10)
      << "seed " << GetParam() << ": H avg " << h_result.average_execution_seconds
      << "s vs PT avg " << pt_result.average_execution_seconds << "s";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecTimeComparisonTest, ::testing::Values(11u, 22u, 33u));

}  // namespace
}  // namespace harvest
