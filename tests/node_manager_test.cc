#include "src/scheduler/node_manager.h"

#include <gtest/gtest.h>
#include <memory>

namespace harvest {
namespace {

// A server whose primary utilization is a fixed step trace: 25% in slot 0,
// 75% in slot 1 (9 cores of 12 after round-up).
Server MakeServer(std::vector<double> utilization) {
  Server server;
  server.id = 0;
  server.tenant = 0;
  server.capacity = kDefaultServerCapacity;
  server.utilization = std::make_shared<const UtilizationTrace>(std::move(utilization));
  return server;
}

Container MakeContainer(ContainerId id, Resources resources, double start) {
  Container c;
  c.id = id;
  c.resources = resources;
  c.start_time = start;
  return c;
}

TEST(NodeManagerTest, PrimaryCoresRoundUp) {
  Server server = MakeServer({0.25, 0.75, 0.01});
  NodeManager nm(&server, kDefaultReserve, SchedulerMode::kPrimaryAware);
  EXPECT_EQ(nm.PrimaryCores(0.0), 3);     // 0.25 * 12
  EXPECT_EQ(nm.PrimaryCores(120.0), 9);   // 0.75 * 12
  EXPECT_EQ(nm.PrimaryCores(240.0), 1);   // 0.12 cores rounds up to 1
}

TEST(NodeManagerTest, StockModeSeesFullMachine) {
  Server server = MakeServer({0.5});
  NodeManager nm(&server, kDefaultReserve, SchedulerMode::kStock);
  Resources available = nm.AvailableForSecondary(0.0);
  EXPECT_EQ(available.cores, 12);
  EXPECT_EQ(available.memory_mb, 32 * 1024);
}

TEST(NodeManagerTest, PrimaryAwareSubtractsUsageAndReserve) {
  Server server = MakeServer({0.25});
  NodeManager nm(&server, kDefaultReserve, SchedulerMode::kPrimaryAware);
  Resources available = nm.AvailableForSecondary(0.0);
  // 12 - 3 (primary) - 4 (reserve) = 5 cores.
  EXPECT_EQ(available.cores, 5);
  EXPECT_GT(available.memory_mb, 0);
}

TEST(NodeManagerTest, AllocationsReduceAvailability) {
  Server server = MakeServer({0.25});
  NodeManager nm(&server, kDefaultReserve, SchedulerMode::kPrimaryAware);
  nm.AddContainer(MakeContainer(1, {2, 4096}, 0.0));
  EXPECT_EQ(nm.AvailableForSecondary(0.0).cores, 3);
  EXPECT_TRUE(nm.AvailableForSecondary(0.0).Fits({3, 1024}));
  EXPECT_FALSE(nm.AvailableForSecondary(0.0).Fits({4, 1024}));
}

TEST(NodeManagerTest, RemoveContainerRestoresAvailability) {
  Server server = MakeServer({0.25});
  NodeManager nm(&server, kDefaultReserve, SchedulerMode::kPrimaryAware);
  nm.AddContainer(MakeContainer(1, {2, 4096}, 0.0));
  EXPECT_TRUE(nm.RemoveContainer(1));
  EXPECT_FALSE(nm.RemoveContainer(1));  // second removal fails
  EXPECT_EQ(nm.AvailableForSecondary(0.0).cores, 5);
  EXPECT_TRUE(nm.idle());
}

TEST(NodeManagerTest, EnforceReserveKillsYoungestFirst) {
  // Primary at 25% (3 cores) in slot 0, 66% (8 cores) in slot 1. With the
  // 4-core reserve, slot 1 leaves 12-8-4 = 0 for secondaries: all must die,
  // youngest (latest start) first.
  Server server = MakeServer({0.25, 0.66});
  NodeManager nm(&server, kDefaultReserve, SchedulerMode::kPrimaryAware);
  nm.AddContainer(MakeContainer(1, {2, 2048}, 0.0));
  nm.AddContainer(MakeContainer(2, {2, 2048}, 10.0));
  nm.AddContainer(MakeContainer(3, {1, 2048}, 20.0));
  EXPECT_TRUE(nm.EnforceReserve(0.0).empty());  // enough room in slot 0

  std::vector<Container> killed = nm.EnforceReserve(120.0);
  ASSERT_FALSE(killed.empty());
  // Youngest first: container 3 dies before 2 dies before 1.
  EXPECT_EQ(killed[0].id, 3);
  if (killed.size() > 1) {
    EXPECT_EQ(killed[1].id, 2);
  }
  // After enforcement the invariant holds.
  Resources needed{nm.PrimaryCores(120.0) + nm.allocated().cores + kDefaultReserve.cores, 0};
  EXPECT_LE(needed.cores, server.capacity.cores);
}

TEST(NodeManagerTest, EnforceReserveKillsOnlyAsNeeded) {
  // Primary at 50% = 6 cores; reserve 4; capacity 12 -> room for 2 cores.
  Server server = MakeServer({0.25, 0.50});
  NodeManager nm(&server, kDefaultReserve, SchedulerMode::kPrimaryAware);
  nm.AddContainer(MakeContainer(1, {2, 2048}, 0.0));
  nm.AddContainer(MakeContainer(2, {2, 2048}, 10.0));
  std::vector<Container> killed = nm.EnforceReserve(120.0);
  ASSERT_EQ(killed.size(), 1u);
  EXPECT_EQ(killed[0].id, 2);
  EXPECT_EQ(nm.allocated().cores, 2);
}

TEST(NodeManagerTest, StockModeNeverKills) {
  Server server = MakeServer({1.0});
  NodeManager nm(&server, kDefaultReserve, SchedulerMode::kStock);
  nm.AddContainer(MakeContainer(1, {8, 8192}, 0.0));
  EXPECT_TRUE(nm.EnforceReserve(0.0).empty());
  EXPECT_EQ(nm.OvercommitCores(0.0), 8);  // 12 primary + 8 secondary - 12
}

TEST(NodeManagerTest, OvercommitZeroWhenWithinCapacity) {
  Server server = MakeServer({0.25});
  NodeManager nm(&server, kDefaultReserve, SchedulerMode::kPrimaryAware);
  nm.AddContainer(MakeContainer(1, {5, 4096}, 0.0));
  EXPECT_EQ(nm.OvercommitCores(0.0), 0);
}

TEST(NodeManagerTest, TotalUtilizationCombinesTenants) {
  Server server = MakeServer({0.5});
  NodeManager nm(&server, kDefaultReserve, SchedulerMode::kPrimaryAware);
  EXPECT_NEAR(nm.TotalUtilization(0.0), 0.5, 1e-12);
  nm.AddContainer(MakeContainer(1, {3, 2048}, 0.0));
  EXPECT_NEAR(nm.TotalUtilization(0.0), 0.75, 1e-12);  // 6 + 3 of 12
  nm.AddContainer(MakeContainer(2, {12, 2048}, 0.0));
  EXPECT_DOUBLE_EQ(nm.TotalUtilization(0.0), 1.0);  // capped
}

}  // namespace
}  // namespace harvest
