// Data availability (paper Fig 16): uniform block accesses replayed through
// the storage co-simulation against a utilization-scaled cluster, with the
// seed streams the driver's AvailabilityStage uses.

#include <gtest/gtest.h>

#include "src/cluster/datacenter.h"
#include "src/experiments/cluster_scaling.h"
#include "src/experiments/storage_cosim.h"
#include "src/util/rng.h"

namespace harvest {
namespace {

constexpr int64_t kAccesses = 20000;

Cluster BaseCluster(uint64_t seed) {
  Rng rng(seed);
  BuildOptions options;
  options.trace_slots = kSlotsPerDay * 2;
  options.reimage_months = 1;
  options.scale = 0.12;
  options.per_server_traces = false;
  return BuildCluster(DatacenterByName("DC-9"), options, rng);
}

// One availability cell on `cluster` as-is (callers scale it first with
// ScaleClusterUtilization for the sweep). Both systems hit the same 66%
// wall; placement is the only difference.
StorageCosimResult RunCell(const Cluster& cluster, PlacementKind placement, int replication,
                           uint64_t seed) {
  StorageTimelineOptions timeline;
  timeline.uniform_accesses = kAccesses;
  timeline.access_horizon_seconds = kSlotsPerDay * 2 * kSlotSeconds;
  timeline.access_seed = DerivedStreamSeed(seed, "accesses");

  StorageCosimOptions options;
  options.placement = placement;
  options.replication = replication;
  options.num_blocks = 5000;
  options.primary_aware_access = true;
  options.writer_seed = seed;
  options.policy_seed = DerivedStreamSeed(seed, PlacementKindName(placement));
  return RunStorageCosim(cluster, BuildStorageTimeline(cluster, timeline), options);
}

double FailedPercent(const Cluster& cluster, PlacementKind placement, int replication,
                     uint64_t seed) {
  return RunCell(cluster, placement, replication, seed).failed_access_percent;
}

TEST(AvailabilityTest, LowUtilizationHasNoFailures) {
  Cluster cluster = ScaleClusterUtilization(BaseCluster(1), ScalingMethod::kLinear, 0.15);
  StorageCosimResult result = RunCell(cluster, PlacementKind::kHistory, 3, 1);
  EXPECT_EQ(result.stats.failed_accesses, 0);
  EXPECT_NEAR(cluster.AverageUtilization(), 0.15, 0.03);
}

TEST(AvailabilityTest, SaturatedClusterFailsMostAccesses) {
  Cluster cluster = ScaleClusterUtilization(BaseCluster(2), ScalingMethod::kLinear, 0.9);
  // Nearly everything sits above the 66% wall.
  EXPECT_GT(FailedPercent(cluster, PlacementKind::kHistory, 3, 2), 40.0);
}

TEST(AvailabilityTest, FailureRateMonotoneInUtilization) {
  Cluster base = BaseCluster(3);
  double previous = -1.0;
  for (double target : {0.3, 0.5, 0.7}) {
    Cluster cluster = ScaleClusterUtilization(base, ScalingMethod::kLinear, target);
    double failed = FailedPercent(cluster, PlacementKind::kStock, 3, 3);
    EXPECT_GE(failed, previous - 0.2);  // small noise slack
    previous = failed;
  }
}

TEST(AvailabilityTest, HistoryBeatsStockAtModerateUtilization) {
  // The Fig 16 claim: at utilizations around 45-55%, HDFS-H's placement
  // diversity keeps accesses available while stock placement fails.
  Cluster cluster = ScaleClusterUtilization(BaseCluster(4), ScalingMethod::kLinear, 0.5);
  double stock = FailedPercent(cluster, PlacementKind::kStock, 3, 4);
  double history = FailedPercent(cluster, PlacementKind::kHistory, 3, 4);
  EXPECT_LE(history, stock);
}

TEST(AvailabilityTest, MoreReplicasImproveAvailability) {
  Cluster cluster = ScaleClusterUtilization(BaseCluster(5), ScalingMethod::kLinear, 0.55);
  for (PlacementKind placement : {PlacementKind::kStock, PlacementKind::kHistory}) {
    double three = FailedPercent(cluster, placement, 3, 5);
    double four = FailedPercent(cluster, placement, 4, 5);
    EXPECT_LE(four, three + 0.1) << PlacementKindName(placement);
  }
}

TEST(AvailabilityTest, DeterministicForSeed) {
  Cluster cluster = ScaleClusterUtilization(BaseCluster(6), ScalingMethod::kLinear, 0.5);
  StorageCosimResult a = RunCell(cluster, PlacementKind::kHistory, 3, 6);
  StorageCosimResult b = RunCell(cluster, PlacementKind::kHistory, 3, 6);
  EXPECT_EQ(a.stats.failed_accesses, b.stats.failed_accesses);
}

TEST(AvailabilityTest, AccountsAllAccesses) {
  Cluster cluster = BaseCluster(7);
  StorageStats stats = RunCell(cluster, PlacementKind::kStock, 3, 7).stats;
  EXPECT_EQ(stats.accesses, kAccesses);
  EXPECT_GE(stats.failed_accesses, 0);
  EXPECT_LE(stats.failed_accesses, stats.accesses);
}

// Property: root scaling delays the *onset* of unavailability relative to
// linear scaling (the paper: HDFS-H exhibits no unavailability up to a
// higher utilization under root scaling, because linear scaling saturates
// peaks through the 66% wall earlier). The comparison only holds near the
// onset -- at high averages root concentrates servers near the wall.
class ScalingComparisonTest : public ::testing::TestWithParam<double> {};

TEST_P(ScalingComparisonTest, RootDelaysUnavailabilityOnset) {
  double target = GetParam();
  Cluster base = BaseCluster(8);
  Cluster linear = ScaleClusterUtilization(base, ScalingMethod::kLinear, target);
  Cluster root = ScaleClusterUtilization(base, ScalingMethod::kRoot, target);
  double linear_failed = FailedPercent(linear, PlacementKind::kHistory, 3, 8);
  double root_failed = FailedPercent(root, PlacementKind::kHistory, 3, 8);
  EXPECT_LE(root_failed, linear_failed + 0.5);
}

INSTANTIATE_TEST_SUITE_P(Targets, ScalingComparisonTest, ::testing::Values(0.35, 0.45));

}  // namespace
}  // namespace harvest
