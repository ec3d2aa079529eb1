#include "src/storage/placement.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <new>
#include <set>

#include "src/cluster/datacenter.h"
#include "src/experiments/storage_cosim.h"

namespace {

int64_t g_allocations = 0;

}  // namespace

// Counts every allocation of this binary (the heal-path test below reads
// the count around a window).
void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* memory = std::malloc(size == 0 ? 1 : size)) {
    return memory;
  }
  throw std::bad_alloc();
}
void operator delete(void* memory) noexcept { std::free(memory); }
void operator delete(void* memory, std::size_t) noexcept { std::free(memory); }

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

// One open byte per server of `cluster`: set where `open(server)` holds.
template <typename Predicate>
std::vector<uint8_t> OpenWhere(const Cluster& cluster, Predicate open) {
  std::vector<uint8_t> column(cluster.num_servers(), 0);
  for (const Server& server : cluster.servers()) {
    column[static_cast<size_t>(server.id)] = open(server.id) ? 1 : 0;
  }
  return column;
}

std::vector<uint8_t> AllOpen(const Cluster& cluster) {
  return std::vector<uint8_t>(cluster.num_servers(), 1);
}

TEST(StockPlacementTest, ClassicThreeReplicaLayout) {
  Cluster cluster = RealisticCluster(1);
  StockPlacement policy(&cluster);
  const std::vector<uint8_t> open = AllOpen(cluster);
  Rng rng(2);
  int same_rack_second = 0;
  const int trials = 200;
  for (int i = 0; i < trials; ++i) {
    ServerId writer = static_cast<ServerId>(rng.NextBounded(cluster.num_servers()));
    const std::span<const ServerId> replicas = policy.Place(writer, 3, {open}, rng);
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
  const std::vector<uint8_t> open = AllOpen(cluster);
  Rng rng(4);
  int same_env = 0;
  const int trials = 300;
  for (int i = 0; i < trials; ++i) {
    ServerId writer = static_cast<ServerId>(rng.NextBounded(cluster.num_servers()));
    const std::span<const ServerId> replicas = policy.Place(writer, 3, {open}, rng);
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
  const std::vector<uint8_t> open = OpenWhere(cluster, [&cluster, writer, writer_rack](ServerId s) {
    return s == writer || cluster.server(s).rack != writer_rack;
  });
  const std::span<const ServerId> replicas = policy.Place(writer, 3, {open}, rng);
  ASSERT_EQ(replicas.size(), 3u);
  for (size_t i = 1; i < replicas.size(); ++i) {
    EXPECT_NE(cluster.server(replicas[i]).rack, writer_rack);
  }
}

TEST(RandomPlacementTest, DistinctServers) {
  Cluster cluster = RealisticCluster(7);
  RandomPlacement policy(&cluster);
  const std::vector<uint8_t> open = AllOpen(cluster);
  Rng rng(8);
  for (int i = 0; i < 100; ++i) {
    const std::span<const ServerId> replicas = policy.Place(0, 4, {open}, rng);
    ASSERT_EQ(replicas.size(), 4u);
    std::set<ServerId> unique(replicas.begin(), replicas.end());
    EXPECT_EQ(unique.size(), 4u);
  }
}

TEST(HistoryPlacementTest, SpreadsAcrossEnvironments) {
  Cluster cluster = RealisticCluster(9);
  HistoryPlacement policy(&cluster);
  const std::vector<uint8_t> open = AllOpen(cluster);
  Rng rng(10);
  for (int i = 0; i < 100; ++i) {
    ServerId writer = static_cast<ServerId>(rng.NextBounded(cluster.num_servers()));
    const std::span<const ServerId> replicas = policy.Place(writer, 3, {open}, rng);
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
  const std::vector<uint8_t> open = AllOpen(cluster);
  Rng rng(16);
  auto average_spread = [&](const PlacementPolicy& policy) {
    double total = 0.0;
    const int trials = 200;
    for (int i = 0; i < trials; ++i) {
      ServerId writer = static_cast<ServerId>(rng.NextBounded(cluster.num_servers()));
      const std::span<const ServerId> replicas = policy.Place(writer, 3, {open}, rng);
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

// The heal path allocates nothing: once one call has sized its buffers, no
// PlaceAdditional call allocates, for any placement kind. Stock and Random
// heal through Place, which fills a buffer the policy keeps; the history
// kinds reuse the placer's scratch.
TEST(PlaceAdditionalTest, HealsDoNotAllocate) {
  Cluster cluster = RealisticCluster(17);
  Rng setup(18);
  const std::vector<uint8_t> open =
      OpenWhere(cluster, [&setup](ServerId) { return !setup.Bernoulli(0.2); });
  // The existing replicas of 1,000 heals, drawn before the window.
  std::vector<std::array<ServerId, 2>> heals(1000);
  for (auto& existing : heals) {
    existing[0] = static_cast<ServerId>(setup.NextBounded(cluster.num_servers()));
    do {
      existing[1] = static_cast<ServerId>(setup.NextBounded(cluster.num_servers()));
    } while (existing[1] == existing[0]);
  }
  for (PlacementKind kind : AllPlacementKinds()) {
    std::unique_ptr<PlacementPolicy> policy = MakePlacementPolicy(kind, &cluster);
    Rng rng(19);
    ASSERT_NE(policy->PlaceAdditional(heals[0], open, rng), kInvalidServer);  // warm-up
    int placed = 0;
    const int64_t before = g_allocations;
    for (const auto& existing : heals) {
      placed += policy->PlaceAdditional(existing, open, rng) != kInvalidServer ? 1 : 0;
    }
    const int64_t allocations = g_allocations - before;
    EXPECT_EQ(allocations, 0) << PlacementKindName(kind);
    EXPECT_GT(placed, 900) << PlacementKindName(kind);
  }
}

}  // namespace
}  // namespace harvest
