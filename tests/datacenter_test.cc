#include "src/cluster/datacenter.h"

#include <gtest/gtest.h>
#include <map>

namespace harvest {
namespace {

// Regression check for src/cluster/types.h: Resources comparisons are
// hand-written (member-wise) rather than `= default`, so the cluster core
// stays embeddable in downstream builds pinned at -std=c++17, and they are
// constexpr so compile-time constants can be compared.
static_assert(Resources{1, 2} == Resources{1, 2});
static_assert(Resources{1, 2} != Resources{1, 3});
static_assert(Resources{1, 2} != Resources{2, 2});
static_assert(kDefaultServerCapacity == Resources{12, 32 * 1024});

// Events arrive out of server order; each lands on its own tenant's
// `server_index`-th server, in event order (not sorted by time).
TEST(ClusterTest, TenantReimageEventsLandOnTheirServers) {
  Cluster cluster;
  const TenantId a = cluster.AddTenant(PrimaryTenant{});
  const TenantId b = cluster.AddTenant(PrimaryTenant{});
  for (TenantId owner : {a, b, a, b, a}) {  // a owns servers 0, 2, 4; b owns 1, 3
    Server server;
    server.tenant = owner;
    cluster.AddServer(std::move(server));
  }
  cluster.SetTenantReimageEvents(a, {{5.0, 2, false}, {1.0, 0, false}, {3.0, 2, true},
                                     {2.0, 0, false}});
  cluster.SetTenantReimageEvents(b, {{7.0, 1, false}});
  using Times = std::vector<double>;
  auto times = [&](ServerId id) {
    const std::span<const double> span = cluster.ReimageTimes(id);
    return Times(span.begin(), span.end());
  };
  EXPECT_EQ(times(0), (Times{1.0, 2.0}));
  EXPECT_EQ(times(1), Times{});
  EXPECT_EQ(times(2), Times{});
  EXPECT_EQ(times(3), (Times{7.0}));
  EXPECT_EQ(times(4), (Times{5.0, 3.0}));
  EXPECT_EQ(cluster.TotalReimageEvents(), 5);
}

TEST(DatacenterTest, TenProfilesExist) {
  const auto& profiles = AllDatacenterProfiles();
  ASSERT_EQ(profiles.size(), static_cast<size_t>(kNumDatacenters));
  for (int i = 0; i < kNumDatacenters; ++i) {
    EXPECT_EQ(profiles[static_cast<size_t>(i)].name, "DC-" + std::to_string(i));
  }
}

TEST(DatacenterTest, LookupByName) {
  EXPECT_EQ(DatacenterByName("DC-3").name, "DC-3");
  EXPECT_EQ(DatacenterByName("DC-9").name, "DC-9");
}

TEST(DatacenterTest, VariationEncodesPaperOrdering) {
  // Fig 14 discussion: DC-0 and DC-2 least variation, DC-1 and DC-4 most.
  double dc0 = DatacenterByName("DC-0").variation;
  double dc2 = DatacenterByName("DC-2").variation;
  double dc1 = DatacenterByName("DC-1").variation;
  double dc4 = DatacenterByName("DC-4").variation;
  for (const auto& profile : AllDatacenterProfiles()) {
    EXPECT_LE(dc0, profile.variation + 1e-12);
    EXPECT_GE(std::max(dc1, dc4), profile.variation - 1e-12);
  }
  EXPECT_LT(std::max(dc0, dc2), 0.3);
  EXPECT_GT(std::min(dc1, dc4), 0.8);
}

TEST(DatacenterTest, BuildClusterBasicInvariants) {
  Rng rng(1);
  BuildOptions options;
  options.trace_slots = kSlotsPerDay * 3;  // keep the test fast
  options.reimage_months = 2;
  options.scale = 0.2;
  options.per_server_traces = false;
  Cluster cluster = BuildCluster(DatacenterByName("DC-5"), options, rng);

  EXPECT_GT(cluster.num_tenants(), 0u);
  EXPECT_GT(cluster.num_servers(), cluster.num_tenants());
  for (const auto& server : cluster.servers()) {
    ASSERT_GE(server.tenant, 0);
    ASSERT_LT(static_cast<size_t>(server.tenant), cluster.num_tenants());
    ASSERT_TRUE(server.utilization != nullptr);
    EXPECT_GT(server.harvestable_blocks, 0);
    EXPECT_EQ(server.capacity.cores, 12);
  }
  // Server lists are consistent with server.tenant back-pointers.
  size_t listed = 0;
  for (const auto& tenant : cluster.tenants()) {
    for (ServerId s : tenant.servers) {
      EXPECT_EQ(cluster.server(s).tenant, tenant.id);
      ++listed;
    }
  }
  EXPECT_EQ(listed, cluster.num_servers());
}

TEST(DatacenterTest, SharedTracesWhenPerServerDisabled) {
  Rng rng(2);
  BuildOptions options;
  options.trace_slots = kSlotsPerDay;
  options.reimage_months = 1;
  options.scale = 0.1;
  options.per_server_traces = false;
  Cluster cluster = BuildCluster(DatacenterByName("DC-0"), options, rng);
  for (const auto& tenant : cluster.tenants()) {
    if (tenant.servers.size() < 2) {
      continue;
    }
    const auto& first = cluster.server(tenant.servers[0]).utilization;
    for (ServerId s : tenant.servers) {
      EXPECT_EQ(cluster.server(s).utilization.get(), first.get());
    }
  }
}

TEST(DatacenterTest, PerServerTracesAreDistinct) {
  Rng rng(3);
  BuildOptions options;
  options.trace_slots = kSlotsPerDay;
  options.reimage_months = 1;
  options.scale = 0.05;
  options.per_server_traces = true;
  Cluster cluster = BuildCluster(DatacenterByName("DC-0"), options, rng);
  for (const auto& tenant : cluster.tenants()) {
    if (tenant.servers.size() < 2) {
      continue;
    }
    EXPECT_NE(cluster.server(tenant.servers[0]).utilization.get(),
              cluster.server(tenant.servers[1]).utilization.get());
  }
}

TEST(DatacenterTest, RacksAreContiguousPerTenant) {
  Rng rng(4);
  BuildOptions options;
  options.trace_slots = kSlotsPerDay;
  options.reimage_months = 1;
  options.scale = 0.2;
  options.per_server_traces = false;
  Cluster cluster = BuildCluster(DatacenterByName("DC-7"), options, rng);
  // No rack is shared by two tenants (the environment/rack correlation that
  // makes stock placement fragile).
  std::map<RackId, TenantId> rack_owner;
  for (const auto& server : cluster.servers()) {
    auto [it, inserted] = rack_owner.emplace(server.rack, server.tenant);
    if (!inserted) {
      EXPECT_EQ(it->second, server.tenant) << "rack " << server.rack << " shared";
    }
  }
}

TEST(DatacenterTest, TestbedClusterMatchesPaperMix) {
  Rng rng(5);
  Cluster cluster = BuildTestbedCluster(102, kSlotsPerDay * 2, rng);
  EXPECT_EQ(cluster.num_servers(), 102u);
  EXPECT_EQ(cluster.num_tenants(), 21u);
  int counts[3] = {0, 0, 0};
  for (const auto& tenant : cluster.tenants()) {
    ++counts[static_cast<int>(tenant.true_pattern)];
    EXPECT_FALSE(tenant.servers.empty());
  }
  EXPECT_EQ(counts[static_cast<int>(UtilizationPattern::kPeriodic)], 13);
  EXPECT_EQ(counts[static_cast<int>(UtilizationPattern::kConstant)], 3);
  EXPECT_EQ(counts[static_cast<int>(UtilizationPattern::kUnpredictable)], 5);
}

TEST(DatacenterTest, ScaleControlsFleetSize) {
  Rng rng1(6);
  Rng rng2(6);
  BuildOptions small;
  small.trace_slots = 100;
  small.reimage_months = 1;
  small.scale = 0.1;
  small.per_server_traces = false;
  BuildOptions large = small;
  large.scale = 0.5;
  Cluster a = BuildCluster(DatacenterByName("DC-6"), small, rng1);
  Cluster b = BuildCluster(DatacenterByName("DC-6"), large, rng2);
  EXPECT_GT(b.num_tenants(), a.num_tenants() * 3);
}

// Property: every datacenter builds successfully with sane pattern mixes.
class AllDatacentersBuildTest : public ::testing::TestWithParam<int> {};

TEST_P(AllDatacentersBuildTest, BuildsWithPositiveFleet) {
  const auto& profile = AllDatacenterProfiles()[static_cast<size_t>(GetParam())];
  Rng rng(7);
  BuildOptions options;
  options.trace_slots = kSlotsPerDay;
  options.reimage_months = 1;
  options.scale = 0.15;
  options.per_server_traces = false;
  Cluster cluster = BuildCluster(profile, options, rng);
  EXPECT_GT(cluster.num_tenants(), 10u);
  EXPECT_GT(cluster.num_servers(), 100u);
  EXPECT_GT(cluster.AverageUtilization(), 0.02);
  EXPECT_LT(cluster.AverageUtilization(), 0.9);
}

INSTANTIATE_TEST_SUITE_P(AllDcs, AllDatacentersBuildTest, ::testing::Range(0, kNumDatacenters));

}  // namespace
}  // namespace harvest
