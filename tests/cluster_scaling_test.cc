#include "src/experiments/cluster_scaling.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/cluster/datacenter.h"

namespace harvest {
namespace {

Cluster SmallCluster(bool per_server, uint64_t seed, double scale = 0.1) {
  Rng rng(seed);
  BuildOptions options;
  options.trace_slots = kSlotsPerDay * 2;
  options.reimage_months = 1;
  options.scale = scale;
  options.per_server_traces = per_server;
  return BuildCluster(DatacenterByName("DC-9"), options, rng);
}

TEST(ClusterScalingTest, PreservesTopologyAndStorage) {
  Cluster cluster = SmallCluster(false, 1);
  Cluster scaled = ScaleClusterUtilization(cluster, ScalingMethod::kLinear, 0.5);
  ASSERT_EQ(scaled.num_servers(), cluster.num_servers());
  ASSERT_EQ(scaled.num_tenants(), cluster.num_tenants());
  for (size_t s = 0; s < cluster.num_servers(); ++s) {
    EXPECT_EQ(scaled.server(static_cast<ServerId>(s)).harvestable_blocks,
              cluster.server(static_cast<ServerId>(s)).harvestable_blocks);
    EXPECT_EQ(scaled.server(static_cast<ServerId>(s)).rack,
              cluster.server(static_cast<ServerId>(s)).rack);
  }
}

TEST(ClusterScalingTest, SharedTracesStayShared) {
  Cluster cluster = SmallCluster(false, 2);
  Cluster scaled = ScaleClusterUtilization(cluster, ScalingMethod::kLinear, 0.4);
  for (const auto& tenant : scaled.tenants()) {
    if (tenant.servers.size() < 2) {
      continue;
    }
    EXPECT_EQ(scaled.server(tenant.servers[0]).utilization.get(),
              scaled.server(tenant.servers[1]).utilization.get());
  }
}

TEST(ClusterScalingTest, OriginalClusterUntouched) {
  Cluster cluster = SmallCluster(false, 3);
  double before = cluster.AverageUtilization();
  Cluster scaled = ScaleClusterUtilization(cluster, ScalingMethod::kLinear, 0.7);
  EXPECT_NEAR(cluster.AverageUtilization(), before, 1e-12);
  EXPECT_GT(scaled.AverageUtilization(), before);
}

// Property: both methods land the fleet average on the target across the
// utilization spectrum and trace-sharing modes.
class ScaleSweepTest
    : public ::testing::TestWithParam<std::tuple<ScalingMethod, double, bool>> {};

TEST_P(ScaleSweepTest, HitsTarget) {
  auto [method, target, per_server] = GetParam();
  Cluster cluster = SmallCluster(per_server, 4);
  Cluster scaled = ScaleClusterUtilization(cluster, method, target);
  EXPECT_NEAR(scaled.AverageUtilization(), target, 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScaleSweepTest,
    ::testing::Combine(::testing::Values(ScalingMethod::kLinear, ScalingMethod::kRoot),
                       ::testing::Values(0.2, 0.45, 0.7), ::testing::Bool()));

// Solving on the fleet's traces in place must give what solving over a deep
// copy with one trace per server gives: the same parameter, bit for bit, and
// so the same scaled server and tenant traces. In the shared-trace cluster
// tenants differ in server count, so each trace must count once per server.
TEST(ClusterScalingTest, InPlaceSolveMatchesAPerServerDeepCopy) {
  for (bool per_server : {false, true}) {
    const Cluster cluster = SmallCluster(per_server, 6, 0.02);
    std::vector<UtilizationTrace> copies;
    std::vector<const UtilizationTrace*> in_place;
    for (const Server& server : cluster.servers()) {
      copies.push_back(*server.utilization);
      in_place.push_back(server.utilization.get());
    }
    std::vector<const UtilizationTrace*> copy_list;
    for (const UtilizationTrace& copy : copies) {
      copy_list.push_back(&copy);
    }
    for (ScalingMethod method : {ScalingMethod::kLinear, ScalingMethod::kRoot}) {
      const double parameter = SolveScalingParameter(copy_list, method, 0.55);
      EXPECT_EQ(SolveScalingParameter(in_place, method, 0.55), parameter);
      const Cluster scaled = ScaleClusterUtilization(cluster, method, 0.55);
      for (size_t s = 0; s < cluster.num_servers(); ++s) {
        EXPECT_EQ(scaled.server(static_cast<ServerId>(s)).utilization->samples(),
                  ScaleTrace(copies[s], method, parameter).samples())
            << "per_server " << per_server << ", server " << s;
      }
      for (size_t t = 0; t < cluster.num_tenants(); ++t) {
        const TenantId id = static_cast<TenantId>(t);
        EXPECT_EQ(scaled.tenant(id).average_utilization.samples(),
                  ScaleTrace(cluster.tenant(id).average_utilization, method, parameter).samples())
            << "per_server " << per_server << ", tenant " << t;
      }
    }
  }
}

TEST(ClusterScalingTest, TenantAverageTracksServerTraces) {
  Cluster cluster = SmallCluster(false, 5);
  Cluster scaled = ScaleClusterUtilization(cluster, ScalingMethod::kRoot, 0.6);
  for (const auto& tenant : scaled.tenants()) {
    if (tenant.servers.empty()) {
      continue;
    }
    // Shared-trace mode: the tenant average equals its servers' trace.
    EXPECT_NEAR(tenant.average_utilization.Average(),
                scaled.server(tenant.servers[0]).utilization->Average(), 1e-9);
  }
}

}  // namespace
}  // namespace harvest
