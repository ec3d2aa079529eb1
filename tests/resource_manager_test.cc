#include "src/scheduler/resource_manager.h"

#include <gtest/gtest.h>

#include <set>

namespace harvest {
namespace {

// A tiny cluster: two tenants, each with three servers. Tenant 0 idles at 10%
// utilization, tenant 1 runs hot at 60%.
Cluster TwoTenantCluster() {
  Cluster cluster;
  for (int t = 0; t < 2; ++t) {
    PrimaryTenant tenant;
    tenant.environment = t;
    tenant.name = "tenant-" + std::to_string(t);
    double level = t == 0 ? 0.10 : 0.60;
    tenant.average_utilization = UtilizationTrace(std::vector<double>(10, level));
    TenantId id = cluster.AddTenant(std::move(tenant));
    auto trace =
        std::make_shared<const UtilizationTrace>(cluster.tenant(id).average_utilization);
    for (int s = 0; s < 3; ++s) {
      Server server;
      server.tenant = id;
      server.rack = t;
      server.utilization = trace;
      server.harvestable_blocks = 100;
      cluster.AddServer(std::move(server));
    }
  }
  return cluster;
}

TEST(ResourceManagerTest, AllocatePlacesRequestedContainers) {
  Cluster cluster = TwoTenantCluster();
  ResourceManager rm(&cluster, SchedulerMode::kPrimaryAware, kDefaultReserve);
  Rng rng(1);
  ContainerRequest request;
  request.job = 7;
  request.resources = {1, 2048};
  request.count = 4;
  std::vector<Container> placed = rm.Allocate(request, 0.0, rng);
  ASSERT_EQ(placed.size(), 4u);
  for (const auto& c : placed) {
    EXPECT_EQ(c.job, 7);
    EXPECT_GE(c.server, 0);
    EXPECT_LT(static_cast<size_t>(c.server), cluster.num_servers());
  }
  // Container ids are unique.
  std::set<ContainerId> ids;
  for (const auto& c : placed) {
    EXPECT_TRUE(ids.insert(c.id).second);
  }
}

TEST(ResourceManagerTest, AllocationIsPartialWhenClusterFills) {
  Cluster cluster = TwoTenantCluster();
  ResourceManager rm(&cluster, SchedulerMode::kPrimaryAware, kDefaultReserve);
  Rng rng(2);
  ContainerRequest request;
  request.resources = {1, 2048};
  // Capacity bound: tenant 0 servers have 12-2-4=6 cores, tenant 1 servers
  // 12-8-4=0 cores (60% of 12 rounds to 8). Total = 18 cores but memory may
  // bind first; ask for far more than fits.
  request.count = 500;
  std::vector<Container> placed = rm.Allocate(request, 0.0, rng);
  EXPECT_GT(placed.size(), 0u);
  EXPECT_LT(placed.size(), 500u);
  // A follow-up request gets nothing.
  request.count = 1;
  EXPECT_TRUE(rm.Allocate(request, 0.0, rng).empty());
}

TEST(ResourceManagerTest, BalancingPrefersIdleServers) {
  Cluster cluster = TwoTenantCluster();
  ResourceManager rm(&cluster, SchedulerMode::kPrimaryAware, kDefaultReserve);
  Rng rng(3);
  ContainerRequest request;
  request.resources = {1, 1024};
  request.count = 9;
  std::vector<Container> placed = rm.Allocate(request, 0.0, rng);
  int idle_tenant_hits = 0;
  for (const auto& c : placed) {
    if (cluster.server(c.server).tenant == 0) {
      ++idle_tenant_hits;
    }
  }
  // Idle servers have ~6 free cores vs 0 on the hot tenant.
  EXPECT_GE(idle_tenant_hits, 8);
}

TEST(ResourceManagerTest, LabelsRestrictPlacement) {
  Cluster cluster = TwoTenantCluster();
  ResourceManager rm(&cluster, SchedulerMode::kHistory, kDefaultReserve);
  // Class 0 = tenant 0 servers (0,1,2); class 1 = tenant 1 servers (3,4,5).
  rm.SetServerClasses({0, 0, 0, 1, 1, 1});
  EXPECT_EQ(rm.NumClasses(), 2);
  Rng rng(4);
  ContainerRequest request;
  request.resources = {1, 1024};
  request.count = 5;
  request.allowed_classes = {0};
  std::vector<Container> placed = rm.Allocate(request, 0.0, rng);
  ASSERT_FALSE(placed.empty());
  for (const auto& c : placed) {
    EXPECT_LE(c.server, 2);
  }
}

// A request whose candidate samplers total 0 places nothing and draws
// nothing: labeled with a class that has no room (or no servers), and
// label-free with a shape no server fits.
TEST(ResourceManagerTest, RequestWithNoRoomDrawsNothing) {
  Cluster cluster = TwoTenantCluster();
  ResourceManager rm(&cluster, SchedulerMode::kHistory, kDefaultReserve);
  rm.SetServerClasses({0, 0, 0, 1, 1, 1});
  Rng rng(6);
  Rng untouched = rng;
  ContainerRequest request;
  request.resources = {1, 1024};
  request.count = 3;
  request.allowed_classes = {1, 7};  // tenant 1 runs hot; class 7 does not exist
  EXPECT_TRUE(rm.Allocate(request, 0.0, rng).empty());
  request.allowed_classes.clear();
  request.resources = {13, 1024};  // more cores than any server has
  EXPECT_TRUE(rm.Allocate(request, 0.0, rng).empty());
  EXPECT_EQ(rng.Next(), untouched.Next());
  // The same RM still places a shape that fits.
  request.resources = {1, 1024};
  EXPECT_EQ(rm.Allocate(request, 0.0, rng).size(), 3u);
}

TEST(ResourceManagerTest, DisjunctionOfLabels) {
  Cluster cluster = TwoTenantCluster();
  ResourceManager rm(&cluster, SchedulerMode::kHistory, kDefaultReserve);
  rm.SetServerClasses({0, 0, 0, 1, 1, 1});
  Rng rng(5);
  ContainerRequest request;
  request.resources = {1, 1024};
  request.count = 6;
  request.allowed_classes = {0, 1};
  std::vector<Container> placed = rm.Allocate(request, 0.0, rng);
  EXPECT_GE(placed.size(), 6u);
}

TEST(ResourceManagerTest, ReleaseReturnsResources) {
  Cluster cluster = TwoTenantCluster();
  ResourceManager rm(&cluster, SchedulerMode::kPrimaryAware, kDefaultReserve);
  Rng rng(6);
  ContainerRequest request;
  request.resources = {2, 4096};
  request.count = 1;
  std::vector<Container> placed = rm.Allocate(request, 0.0, rng);
  ASSERT_EQ(placed.size(), 1u);
  int before = rm.node(placed[0].server).AvailableForSecondary(0.0).cores;
  rm.Release(placed[0]);
  int after = rm.node(placed[0].server).AvailableForSecondary(0.0).cores;
  EXPECT_EQ(after, before + 2);
}

TEST(ResourceManagerTest, EnforceReservesCountsKills) {
  // Build a cluster whose primary spikes from 10% to 90% in slot 1.
  Cluster cluster;
  PrimaryTenant tenant;
  tenant.environment = 0;
  tenant.name = "spiky";
  tenant.average_utilization = UtilizationTrace({0.10, 0.90});
  TenantId id = cluster.AddTenant(std::move(tenant));
  auto trace = std::make_shared<const UtilizationTrace>(cluster.tenant(id).average_utilization);
  for (int s = 0; s < 2; ++s) {
    Server server;
    server.tenant = id;
    server.utilization = trace;
    cluster.AddServer(std::move(server));
  }
  ResourceManager rm(&cluster, SchedulerMode::kPrimaryAware, kDefaultReserve);
  Rng rng(7);
  ContainerRequest request;
  request.resources = {1, 1024};
  request.count = 12;
  std::vector<Container> placed = rm.Allocate(request, 0.0, rng);
  ASSERT_FALSE(placed.empty());
  EXPECT_TRUE(rm.EnforceReserves(0.0).empty());
  std::vector<Container> killed = rm.EnforceReserves(120.0);
  EXPECT_EQ(killed.size(), placed.size());  // 90% + reserve leaves no room
  EXPECT_EQ(rm.total_kills(), static_cast<int64_t>(killed.size()));
}

TEST(ResourceManagerTest, ClassStateAggregation) {
  Cluster cluster = TwoTenantCluster();
  ResourceManager rm(&cluster, SchedulerMode::kHistory, kDefaultReserve);
  rm.SetServerClasses({0, 0, 0, 1, 1, 1});
  EXPECT_NEAR(rm.ClassCurrentUtilization(0, 0.0), 0.10, 1e-9);
  EXPECT_NEAR(rm.ClassCurrentUtilization(1, 0.0), 0.60, 1e-9);
  // Class 0: 3 servers x (12 - 2 - 4) = 18 cores (10% of 12 rounds to 2).
  EXPECT_EQ(rm.ClassAvailableCores(0, 0.0), 18);
  // Out-of-range class ids are safe.
  EXPECT_DOUBLE_EQ(rm.ClassCurrentUtilization(99, 0.0), 1.0);
  EXPECT_EQ(rm.ClassAvailableCores(-1, 0.0), 0);
}

TEST(ResourceManagerTest, AverageTotalUtilizationReflectsAllocations) {
  Cluster cluster = TwoTenantCluster();
  ResourceManager rm(&cluster, SchedulerMode::kPrimaryAware, kDefaultReserve);
  double before = rm.AverageTotalUtilization(0.0);
  Rng rng(8);
  ContainerRequest request;
  request.resources = {2, 2048};
  request.count = 3;
  rm.Allocate(request, 0.0, rng);
  double after = rm.AverageTotalUtilization(0.0);
  EXPECT_GT(after, before);
}

}  // namespace
}  // namespace harvest
