#include "src/core/utilization_clustering.h"

#include <gtest/gtest.h>

#include "src/cluster/datacenter.h"

namespace harvest {
namespace {

Cluster SmallCluster(uint64_t seed) {
  Rng rng(seed);
  BuildOptions options;
  options.trace_slots = kSlotsPerDay * 7;
  options.reimage_months = 1;
  options.scale = 0.25;
  options.per_server_traces = false;
  return BuildCluster(DatacenterByName("DC-9"), options, rng);
}

TEST(UtilizationClusteringTest, EmptyClusterIsSafe) {
  Cluster empty;
  UtilizationClusteringService service;
  Rng rng(1);
  ClusteringSnapshot snapshot = service.Run(empty, rng);
  EXPECT_TRUE(snapshot.classes.empty());
  EXPECT_TRUE(snapshot.tenant_class.empty());
}

TEST(UtilizationClusteringTest, EveryTenantHasAClass) {
  Cluster cluster = SmallCluster(2);
  UtilizationClusteringService service;
  Rng rng(3);
  ClusteringSnapshot snapshot = service.Run(cluster, rng);
  ASSERT_EQ(snapshot.tenant_class.size(), cluster.num_tenants());
  for (size_t t = 0; t < cluster.num_tenants(); ++t) {
    int c = snapshot.tenant_class[t];
    ASSERT_GE(c, 0);
    ASSERT_LT(c, static_cast<int>(snapshot.classes.size()));
    // Membership lists agree with the per-tenant mapping.
    const auto& members = snapshot.classes[static_cast<size_t>(c)].tenants;
    EXPECT_NE(std::find(members.begin(), members.end(), static_cast<TenantId>(t)),
              members.end());
  }
}

TEST(UtilizationClusteringTest, ClassesAreTaggedWithPatternAndUtilization) {
  Cluster cluster = SmallCluster(4);
  UtilizationClusteringService service;
  Rng rng(5);
  ClusteringSnapshot snapshot = service.Run(cluster, rng);
  ASSERT_FALSE(snapshot.classes.empty());
  for (const auto& cls : snapshot.classes) {
    EXPECT_FALSE(cls.tenants.empty());
    EXPECT_GE(cls.average_utilization, 0.0);
    EXPECT_LE(cls.average_utilization, 1.0);
    EXPECT_GE(cls.peak_utilization, cls.average_utilization - 1e-9);
    EXPECT_LE(cls.peak_utilization, 1.0);
    EXPECT_GT(cls.total_cores, 0);
    EXPECT_FALSE(cls.label.empty());
    // Members carry the class pattern.
    for (TenantId t : cls.tenants) {
      EXPECT_EQ(snapshot.tenant_pattern[static_cast<size_t>(t)], cls.pattern);
    }
  }
}

TEST(UtilizationClusteringTest, ClassifierRecoversGeneratorGroundTruth) {
  Cluster cluster = SmallCluster(6);
  UtilizationClusteringService service;
  Rng rng(7);
  ClusteringSnapshot snapshot = service.Run(cluster, rng);
  int agree = 0;
  for (const auto& tenant : cluster.tenants()) {
    if (snapshot.tenant_pattern[static_cast<size_t>(tenant.id)] == tenant.true_pattern) {
      ++agree;
    }
  }
  // Synthetic traces are not adversarial; expect high but imperfect accuracy.
  EXPECT_GT(agree, static_cast<int>(cluster.num_tenants()) * 8 / 10);
}

TEST(UtilizationClusteringTest, ServerCountsSumToFleet) {
  Cluster cluster = SmallCluster(8);
  UtilizationClusteringService service;
  Rng rng(9);
  ClusteringSnapshot snapshot = service.Run(cluster, rng);
  std::vector<int> tenant_counts = snapshot.TenantCountPerPattern();
  std::vector<int> server_counts = snapshot.ServerCountPerPattern(cluster);
  int tenants = 0;
  int servers = 0;
  for (int p = 0; p < kNumPatterns; ++p) {
    tenants += tenant_counts[static_cast<size_t>(p)];
    servers += server_counts[static_cast<size_t>(p)];
  }
  EXPECT_EQ(tenants, static_cast<int>(cluster.num_tenants()));
  EXPECT_EQ(servers, static_cast<int>(cluster.num_servers()));
}

TEST(UtilizationClusteringTest, ClassServersMatchTenantMembership) {
  Cluster cluster = SmallCluster(10);
  UtilizationClusteringService service;
  Rng rng(11);
  ClusteringSnapshot snapshot = service.Run(cluster, rng);
  size_t total_servers = 0;
  for (const auto& cls : snapshot.classes) {
    total_servers += cls.servers.size();
    for (ServerId s : cls.servers) {
      TenantId owner = cluster.server(s).tenant;
      EXPECT_EQ(snapshot.tenant_class[static_cast<size_t>(owner)], cls.id);
    }
  }
  EXPECT_EQ(total_servers, cluster.num_servers());
}

TEST(UtilizationClusteringTest, MaxClassesPerPatternRespected) {
  Cluster cluster = SmallCluster(12);
  ClusteringOptions options;
  options.max_classes_per_pattern = 2;
  UtilizationClusteringService service(options);
  Rng rng(13);
  ClusteringSnapshot snapshot = service.Run(cluster, rng);
  int per_pattern[kNumPatterns] = {0, 0, 0};
  for (const auto& cls : snapshot.classes) {
    ++per_pattern[static_cast<int>(cls.pattern)];
  }
  for (int p = 0; p < kNumPatterns; ++p) {
    EXPECT_LE(per_pattern[p], 2);
  }
}

}  // namespace
}  // namespace harvest
