#include "src/storage/placement.h"

#include <gtest/gtest.h>
#include <set>

#include "src/cluster/datacenter.h"

namespace harvest {
namespace {

Cluster RealisticCluster(uint64_t seed) {
  Rng rng(seed);
  BuildOptions options;
  options.trace_slots = kSlotsPerDay;
  options.reimage_months = 1;
  options.scale = 0.15;
  options.per_server_traces = false;
  return BuildCluster(DatacenterByName("DC-9"), options, rng);
}

ServerSpaceFilter AlwaysHasSpace() {
  return [](ServerId) { return true; };
}

TEST(StockPlacementTest, ClassicThreeReplicaLayout) {
  Cluster cluster = RealisticCluster(1);
  StockPlacement policy(&cluster);
  Rng rng(2);
  int same_rack_second = 0;
  const int trials = 200;
  for (int i = 0; i < trials; ++i) {
    ServerId writer = static_cast<ServerId>(rng.NextBounded(cluster.num_servers()));
    std::vector<ServerId> replicas = policy.Place(writer, 3, AlwaysHasSpace(), rng);
    ASSERT_EQ(replicas.size(), 3u);
    EXPECT_EQ(replicas[0], writer);
    std::set<ServerId> unique(replicas.begin(), replicas.end());
    EXPECT_EQ(unique.size(), 3u);
    if (cluster.server(replicas[1]).rack == cluster.server(writer).rack) {
      ++same_rack_second;
    }
    // Third replica on a remote rack.
    EXPECT_NE(cluster.server(replicas[2]).rack, cluster.server(writer).rack);
  }
  // Second replica rides the writer's rack whenever the rack has room.
  EXPECT_GT(same_rack_second, trials * 9 / 10);
}

TEST(StockPlacementTest, RackLocalityCorrelatesWithEnvironment) {
  // The durability weakness: with tenant-contiguous racks, replicas 1 and 2
  // usually share the writer's environment.
  Cluster cluster = RealisticCluster(3);
  StockPlacement policy(&cluster);
  Rng rng(4);
  int same_env = 0;
  const int trials = 300;
  for (int i = 0; i < trials; ++i) {
    ServerId writer = static_cast<ServerId>(rng.NextBounded(cluster.num_servers()));
    std::vector<ServerId> replicas = policy.Place(writer, 3, AlwaysHasSpace(), rng);
    if (replicas.size() >= 2 &&
        cluster.server(replicas[1]).tenant == cluster.server(writer).tenant) {
      ++same_env;
    }
  }
  EXPECT_GT(same_env, trials / 2);
}

TEST(StockPlacementTest, FallsBackWhenRackFull) {
  Cluster cluster = RealisticCluster(5);
  StockPlacement policy(&cluster);
  Rng rng(6);
  ServerId writer = 0;
  RackId writer_rack = cluster.server(writer).rack;
  // Deny space on the whole writer rack except the writer itself.
  auto filter = [&cluster, writer, writer_rack](ServerId s) {
    return s == writer || cluster.server(s).rack != writer_rack;
  };
  std::vector<ServerId> replicas = policy.Place(writer, 3, filter, rng);
  ASSERT_EQ(replicas.size(), 3u);
  for (size_t i = 1; i < replicas.size(); ++i) {
    EXPECT_NE(cluster.server(replicas[i]).rack, writer_rack);
  }
}

TEST(RandomPlacementTest, DistinctServers) {
  Cluster cluster = RealisticCluster(7);
  RandomPlacement policy(&cluster);
  Rng rng(8);
  for (int i = 0; i < 100; ++i) {
    std::vector<ServerId> replicas = policy.Place(0, 4, AlwaysHasSpace(), rng);
    ASSERT_EQ(replicas.size(), 4u);
    std::set<ServerId> unique(replicas.begin(), replicas.end());
    EXPECT_EQ(unique.size(), 4u);
  }
}

TEST(HistoryPlacementTest, SpreadsAcrossEnvironments) {
  Cluster cluster = RealisticCluster(9);
  HistoryPlacement policy(&cluster);
  Rng rng(10);
  for (int i = 0; i < 100; ++i) {
    ServerId writer = static_cast<ServerId>(rng.NextBounded(cluster.num_servers()));
    std::vector<ServerId> replicas = policy.Place(writer, 3, AlwaysHasSpace(), rng);
    ASSERT_EQ(replicas.size(), 3u);
    std::set<EnvironmentId> envs;
    for (ServerId s : replicas) {
      envs.insert(cluster.tenant(cluster.server(s).tenant).environment);
    }
    EXPECT_EQ(envs.size(), 3u);
  }
}

TEST(HistoryPlacementTest, GridCoversAllTenants) {
  Cluster cluster = RealisticCluster(11);
  HistoryPlacement policy(&cluster);
  size_t in_cells = 0;
  for (int r = 0; r < kGridDim; ++r) {
    for (int c = 0; c < kGridDim; ++c) {
      in_cells += policy.grid().cell(r, c).tenants.size();
    }
  }
  EXPECT_EQ(in_cells, cluster.num_tenants());
}

// Property: history placement diversifies reimage rates within each block --
// the average spread of tenant reimage rates across a block's replicas is
// wider than stock's (which concentrates on the writer's rack/tenant).
TEST(PlacementComparisonTest, HistoryDiversifiesReimageRates) {
  Cluster cluster = RealisticCluster(15);
  StockPlacement stock(&cluster);
  HistoryPlacement history(&cluster);
  Rng rng(16);
  auto average_spread = [&](const PlacementPolicy& policy) {
    double total = 0.0;
    const int trials = 200;
    for (int i = 0; i < trials; ++i) {
      ServerId writer = static_cast<ServerId>(rng.NextBounded(cluster.num_servers()));
      std::vector<ServerId> replicas = policy.Place(writer, 3, AlwaysHasSpace(), rng);
      double lo = 1e18;
      double hi = -1e18;
      for (ServerId s : replicas) {
        double rate = cluster.tenant(cluster.server(s).tenant).reimage_rate;
        lo = std::min(lo, rate);
        hi = std::max(hi, rate);
      }
      total += (replicas.empty() ? 0.0 : hi - lo);
    }
    return total / trials;
  };
  EXPECT_GT(average_spread(history), average_spread(stock));
}

}  // namespace
}  // namespace harvest
