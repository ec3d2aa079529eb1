#include "src/core/replica_placement.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/datacenter.h"

namespace harvest {
namespace {

// A 9-tenant cluster with one tenant per grid cell (3 reimage rates x 3 peak
// utilizations), 4 servers each -- the simplest fully-diverse topology.
Cluster NineCellCluster() {
  Cluster cluster;
  int tenant_index = 0;
  for (int col = 0; col < 3; ++col) {
    for (int row = 0; row < 3; ++row) {
      PrimaryTenant tenant;
      tenant.environment = tenant_index;
      tenant.name = "t" + std::to_string(tenant_index);
      tenant.reimage_rate = 0.1 + 0.5 * col;
      std::vector<double> series(100, 0.2 + 0.25 * row);
      tenant.average_utilization = UtilizationTrace(std::move(series));
      TenantId id = cluster.AddTenant(std::move(tenant));
      auto trace =
          std::make_shared<const UtilizationTrace>(cluster.tenant(id).average_utilization);
      for (int s = 0; s < 4; ++s) {
        Server server;
        server.tenant = id;
        server.rack = tenant_index;
        server.utilization = trace;
        server.harvestable_blocks = 1000;
        cluster.AddServer(std::move(server));
      }
      ++tenant_index;
    }
  }
  return cluster;
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

TEST(ServerSpaceFilterTest, PassesOpenServersNotTaken) {
  const std::vector<uint8_t> open = {1, 0, 1, 1, 0};
  const std::vector<ServerId> taken = {2, 4};
  const ServerSpaceFilter create{open};
  const ServerSpaceFilter heal{open, taken};
  const std::vector<bool> create_wants = {true, false, true, true, false};
  const std::vector<bool> heal_wants = {true, false, false, true, false};
  for (ServerId s = 0; s < 5; ++s) {
    EXPECT_EQ(create(s), create_wants[static_cast<size_t>(s)]) << "server " << s;
    EXPECT_EQ(heal(s), heal_wants[static_cast<size_t>(s)]) << "server " << s;
  }
}

TEST(ReplicaPlacementTest, FirstReplicaIsTheWriter) {
  Cluster cluster = NineCellCluster();
  PlacementGrid grid = PlacementGrid::Build(CollectPlacementStats(cluster));
  ReplicaPlacer placer(&cluster, &grid);
  Rng rng(1);
  const std::vector<uint8_t> open = AllOpen(cluster);
  std::vector<ServerId> replicas = placer.Place(5, 3, {open}, rng);
  ASSERT_EQ(replicas.size(), 3u);
  EXPECT_EQ(replicas[0], 5);
}

TEST(ReplicaPlacementTest, WriterFullFallsBackToItsTenant) {
  Cluster cluster = NineCellCluster();
  PlacementGrid grid = PlacementGrid::Build(CollectPlacementStats(cluster));
  ReplicaPlacer placer(&cluster, &grid);
  Rng rng(2);
  const std::vector<uint8_t> writer_full = OpenWhere(cluster, [](ServerId s) { return s != 5; });
  std::vector<ServerId> replicas = placer.Place(5, 3, {writer_full}, rng);
  ASSERT_EQ(replicas.size(), 3u);
  EXPECT_NE(replicas[0], 5);
  EXPECT_EQ(cluster.server(replicas[0]).tenant, cluster.server(5).tenant);
}

TEST(ReplicaPlacementTest, NoRepeatedRowOrColumnWithinRound) {
  Cluster cluster = NineCellCluster();
  PlacementGrid grid = PlacementGrid::Build(CollectPlacementStats(cluster));
  ReplicaPlacer placer(&cluster, &grid);
  Rng rng(3);
  const std::vector<uint8_t> open = AllOpen(cluster);
  for (int trial = 0; trial < 200; ++trial) {
    ServerId writer = static_cast<ServerId>(rng.NextBounded(cluster.num_servers()));
    std::vector<ServerId> replicas = placer.Place(writer, 3, {open}, rng);
    ASSERT_EQ(replicas.size(), 3u);
    std::set<int> rows;
    std::set<int> cols;
    for (ServerId s : replicas) {
      auto [row, col] = grid.CellOfTenant(cluster.server(s).tenant);
      EXPECT_TRUE(rows.insert(row).second) << "row repeated in trial " << trial;
      EXPECT_TRUE(cols.insert(col).second) << "column repeated in trial " << trial;
    }
  }
}

TEST(ReplicaPlacementTest, NoTwoReplicasInOneEnvironment) {
  Cluster cluster = NineCellCluster();
  PlacementGrid grid = PlacementGrid::Build(CollectPlacementStats(cluster));
  ReplicaPlacer placer(&cluster, &grid);
  Rng rng(4);
  const std::vector<uint8_t> open = AllOpen(cluster);
  for (int trial = 0; trial < 200; ++trial) {
    ServerId writer = static_cast<ServerId>(rng.NextBounded(cluster.num_servers()));
    for (int replication : {3, 4, 5}) {
      std::vector<ServerId> replicas = placer.Place(writer, replication, {open}, rng);
      std::set<EnvironmentId> environments;
      for (ServerId s : replicas) {
        EnvironmentId env = cluster.tenant(cluster.server(s).tenant).environment;
        EXPECT_TRUE(environments.insert(env).second)
            << "environment repeated (replication " << replication << ")";
      }
    }
  }
}

TEST(ReplicaPlacementTest, FourthReplicaResetsRowColumnHistory) {
  // With 9 cells and the constraint reset every 3 replicas, 5 replicas are
  // placeable even though only 3 disjoint row/column cells exist per round.
  Cluster cluster = NineCellCluster();
  PlacementGrid grid = PlacementGrid::Build(CollectPlacementStats(cluster));
  ReplicaPlacer placer(&cluster, &grid);
  Rng rng(5);
  const std::vector<uint8_t> open = AllOpen(cluster);
  std::vector<ServerId> replicas = placer.Place(0, 5, {open}, rng);
  EXPECT_EQ(replicas.size(), 5u);
  // All five servers distinct.
  std::set<ServerId> unique(replicas.begin(), replicas.end());
  EXPECT_EQ(unique.size(), replicas.size());
}

TEST(ReplicaPlacementTest, HardConstraintsReturnPartialPlacement) {
  Cluster cluster = NineCellCluster();
  PlacementGrid grid = PlacementGrid::Build(CollectPlacementStats(cluster));
  ReplicaPlacer placer(&cluster, &grid);
  Rng rng(6);
  // Only the writer's tenant has space: diversity is impossible.
  TenantId writer_tenant = cluster.server(0).tenant;
  const std::vector<uint8_t> only_writer_tenant = OpenWhere(
      cluster, [&cluster, writer_tenant](ServerId s) {
        return cluster.server(s).tenant == writer_tenant;
      });
  std::vector<ServerId> replicas = placer.Place(0, 3, {only_writer_tenant}, rng);
  EXPECT_EQ(replicas.size(), 1u);  // writer only; no fallback under hard mode
}

TEST(ReplicaPlacementTest, SoftConstraintsFillWhenDiversityImpossible) {
  Cluster cluster = NineCellCluster();
  PlacementGrid grid = PlacementGrid::Build(CollectPlacementStats(cluster));
  ReplicaPlacer::Options options;
  options.soft_constraints = true;
  ReplicaPlacer placer(&cluster, &grid, options);
  Rng rng(7);
  TenantId writer_tenant = cluster.server(0).tenant;
  const std::vector<uint8_t> only_writer_tenant = OpenWhere(
      cluster, [&cluster, writer_tenant](ServerId s) {
        return cluster.server(s).tenant == writer_tenant;
      });
  std::vector<ServerId> replicas = placer.Place(0, 3, {only_writer_tenant}, rng);
  // Soft mode trades diversity for space (the paper's initial production
  // configuration) and fills all three replicas inside one tenant.
  EXPECT_EQ(replicas.size(), 3u);
}

TEST(ReplicaPlacementTest, GreedyModeConcentratesOnBestTenants) {
  Cluster cluster = NineCellCluster();
  PlacementGrid grid = PlacementGrid::Build(CollectPlacementStats(cluster));
  ReplicaPlacer::Options options;
  options.greedy_best_first = true;
  ReplicaPlacer placer(&cluster, &grid, options);
  Rng rng(8);
  // The greedy strawman always lands non-writer replicas on the lowest
  // (reimage, peak) tenants.
  std::vector<int> tenant_hits(cluster.num_tenants(), 0);
  const std::vector<uint8_t> open = AllOpen(cluster);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<ServerId> replicas = placer.Place(20, 3, {open}, rng);
    for (size_t i = 1; i < replicas.size(); ++i) {
      ++tenant_hits[static_cast<size_t>(cluster.server(replicas[i]).tenant)];
    }
  }
  // Tenant 0 has the lowest reimage rate and peak: it is hit every time.
  EXPECT_GE(tenant_hits[0], 100);
}

TEST(ReplicaPlacementTest, RespectsSpaceFilter) {
  Cluster cluster = NineCellCluster();
  PlacementGrid grid = PlacementGrid::Build(CollectPlacementStats(cluster));
  ReplicaPlacer placer(&cluster, &grid);
  Rng rng(9);
  std::set<ServerId> full = {1, 2, 3, 7, 11, 13};
  const std::vector<uint8_t> has_space =
      OpenWhere(cluster, [&full](ServerId s) { return full.find(s) == full.end(); });
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<ServerId> replicas = placer.Place(0, 3, {has_space}, rng);
    for (ServerId s : replicas) {
      EXPECT_EQ(full.count(s), 0u);
    }
  }
}

// Property: on a realistic fleet, replication from 1 to 5 always yields
// distinct servers and never repeats environments within a block.
class ReplicationLevelTest : public ::testing::TestWithParam<int> {};

TEST_P(ReplicationLevelTest, DistinctServersAndEnvironments) {
  Rng rng(10);
  BuildOptions options;
  options.trace_slots = kSlotsPerDay;
  options.reimage_months = 1;
  options.scale = 0.15;
  options.per_server_traces = false;
  Cluster cluster = BuildCluster(DatacenterByName("DC-9"), options, rng);
  PlacementGrid grid = PlacementGrid::Build(CollectPlacementStats(cluster));
  ReplicaPlacer placer(&cluster, &grid);
  const int replication = GetParam();
  const std::vector<uint8_t> open = AllOpen(cluster);
  for (int trial = 0; trial < 40; ++trial) {
    ServerId writer = static_cast<ServerId>(rng.NextBounded(cluster.num_servers()));
    std::vector<ServerId> replicas = placer.Place(writer, replication, {open}, rng);
    EXPECT_EQ(replicas.size(), static_cast<size_t>(replication));
    std::set<ServerId> servers(replicas.begin(), replicas.end());
    EXPECT_EQ(servers.size(), replicas.size());
    std::set<EnvironmentId> envs;
    for (ServerId s : replicas) {
      envs.insert(cluster.tenant(cluster.server(s).tenant).environment);
    }
    EXPECT_EQ(envs.size(), replicas.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, ReplicationLevelTest, ::testing::Values(1, 2, 3, 4, 5));

// The reference for the oracle below: Algorithm 2 as ReplicaPlacer ran it
// before its tables, its concrete filter and its in-place first draws,
// written against the public Cluster and PlacementGrid accessors. It
// rescans all nine cells per pass, copies a cell's tenant list before
// shuffling it, and shuffles copies with a plain lazy Fisher-Yates.
class ReferencePlacer {
 public:
  using Filter = std::function<bool(ServerId)>;

  ReferencePlacer(const Cluster* cluster, const PlacementGrid* grid,
                  ReplicaPlacer::Options options)
      : cluster_(cluster), grid_(grid), options_(options) {
    if (options_.greedy_best_first) {
      greedy_order_ = grid_->tenant_stats();
      std::sort(greedy_order_.begin(), greedy_order_.end(),
                [](const TenantPlacementStats& a, const TenantPlacementStats& b) {
                  if (a.reimage_rate != b.reimage_rate) {
                    return a.reimage_rate < b.reimage_rate;
                  }
                  if (a.peak_utilization != b.peak_utilization) {
                    return a.peak_utilization < b.peak_utilization;
                  }
                  return a.tenant < b.tenant;
                });
    }
  }

  std::vector<ServerId> Place(ServerId writer, int replication, const Filter& has_space,
                              Rng& rng) const {
    if (options_.greedy_best_first) {
      return PlaceGreedy(writer, replication, has_space, rng);
    }
    std::vector<ServerId> replicas;
    std::vector<EnvironmentId> used_environments;
    std::array<bool, kGridDim> used_rows{};
    std::array<bool, kGridDim> used_cols{};
    const TenantId writer_tenant = cluster_->server(writer).tenant;
    auto [writer_row, writer_col] = grid_->CellOfTenant(writer_tenant);
    ServerId first = has_space(writer) ? writer : PickServer(writer_tenant, has_space, rng);
    if (first != kInvalidServer) {
      replicas.push_back(first);
      used_environments.push_back(cluster_->tenant(writer_tenant).environment);
      if (writer_row >= 0) {
        used_rows[static_cast<size_t>(writer_row)] = true;
        used_cols[static_cast<size_t>(writer_col)] = true;
      }
    }
    int since_reset = static_cast<int>(replicas.size());
    while (static_cast<int>(replicas.size()) < replication) {
      const Pick pick = PickInCells(used_rows, used_cols, used_environments, has_space, rng);
      ServerId chosen = pick.server;
      if (chosen != kInvalidServer) {
        used_rows[static_cast<size_t>(pick.row)] = true;
        used_cols[static_cast<size_t>(pick.col)] = true;
        used_environments.push_back(cluster_->tenant(pick.tenant).environment);
      }
      if (chosen == kInvalidServer && options_.soft_constraints) {
        for (int r = 0; r < kGridDim && chosen == kInvalidServer; ++r) {
          for (int c = 0; c < kGridDim && chosen == kInvalidServer; ++c) {
            TenantId tenant = PickTenant(grid_->cell(r, c), {}, has_space, rng);
            if (tenant != kInvalidTenant) {
              chosen = PickServer(tenant, has_space, rng);
            }
          }
        }
      }
      if (chosen == kInvalidServer) {
        break;
      }
      replicas.push_back(chosen);
      ++since_reset;
      if (since_reset % 3 == 0) {
        used_rows.fill(false);
        used_cols.fill(false);
      }
    }
    return replicas;
  }

  ServerId PlaceAdditional(const std::vector<ServerId>& existing, const Filter& has_space,
                           Rng& rng) const {
    std::vector<EnvironmentId> used_environments;
    std::array<bool, kGridDim> used_rows{};
    std::array<bool, kGridDim> used_cols{};
    for (ServerId s : existing) {
      TenantId tenant = cluster_->server(s).tenant;
      used_environments.push_back(cluster_->tenant(tenant).environment);
      auto [row, col] = grid_->CellOfTenant(tenant);
      if (row >= 0) {
        used_rows[static_cast<size_t>(row)] = true;
        used_cols[static_cast<size_t>(col)] = true;
      }
    }
    return PickInCells(used_rows, used_cols, used_environments, has_space, rng).server;
  }

 private:
  struct Pick {
    ServerId server = kInvalidServer;
    TenantId tenant = kInvalidTenant;
    int row = -1;
    int col = -1;
  };

  // One Fisher-Yates step over `items` from position `next`.
  template <typename T>
  static T& ShuffleStep(std::vector<T>& items, size_t& next, Rng& rng) {
    size_t j = next + static_cast<size_t>(rng.NextBounded(items.size() - next));
    std::swap(items[next], items[j]);
    return items[next++];
  }

  Pick PickInCells(const std::array<bool, kGridDim>& used_rows,
                   const std::array<bool, kGridDim>& used_cols,
                   const std::vector<EnvironmentId>& used_environments, const Filter& has_space,
                   Rng& rng) const {
    for (int pass = 0; pass < 2; ++pass) {
      std::vector<std::pair<int, int>> cells;
      for (int r = 0; r < kGridDim; ++r) {
        for (int c = 0; c < kGridDim; ++c) {
          bool diverse = !used_rows[static_cast<size_t>(r)] && !used_cols[static_cast<size_t>(c)];
          if ((pass == 0 ? diverse : true) && !grid_->cell(r, c).tenants.empty()) {
            cells.emplace_back(r, c);
          }
        }
      }
      size_t next = 0;
      while (next < cells.size()) {
        auto [r, c] = ShuffleStep(cells, next, rng);
        TenantId tenant = PickTenant(grid_->cell(r, c), used_environments, has_space, rng);
        if (tenant == kInvalidTenant) {
          continue;
        }
        ServerId server = PickServer(tenant, has_space, rng);
        if (server != kInvalidServer) {
          return {server, tenant, r, c};
        }
      }
    }
    return {};
  }

  TenantId PickTenant(const GridCell& cell, const std::vector<EnvironmentId>& used_environments,
                      const Filter& has_space, Rng& rng) const {
    std::vector<TenantId> tenants = cell.tenants;
    size_t next = 0;
    while (next < tenants.size()) {
      TenantId tenant = ShuffleStep(tenants, next, rng);
      const EnvironmentId environment = cluster_->tenant(tenant).environment;
      if (std::find(used_environments.begin(), used_environments.end(), environment) !=
          used_environments.end()) {
        continue;
      }
      for (ServerId server : cluster_->tenant(tenant).servers) {
        if (has_space(server)) {
          return tenant;
        }
      }
    }
    return kInvalidTenant;
  }

  ServerId PickServer(TenantId tenant, const Filter& has_space, Rng& rng) const {
    const std::vector<ServerId>& servers = cluster_->tenant(tenant).servers;
    if (servers.empty()) {
      return kInvalidServer;
    }
    for (int probe = 0; probe < 8; ++probe) {
      ServerId candidate = servers[rng.NextBounded(servers.size())];
      if (has_space(candidate)) {
        return candidate;
      }
    }
    size_t eligible = 0;
    for (ServerId server : servers) {
      if (has_space(server)) {
        ++eligible;
      }
    }
    if (eligible == 0) {
      return kInvalidServer;
    }
    size_t k = rng.NextBounded(eligible);
    for (ServerId server : servers) {
      if (has_space(server) && k-- == 0) {
        return server;
      }
    }
    return kInvalidServer;
  }

  std::vector<ServerId> PlaceGreedy(ServerId writer, int replication, const Filter& has_space,
                                    Rng& rng) const {
    std::vector<ServerId> replicas;
    if (has_space(writer)) {
      replicas.push_back(writer);
    }
    std::vector<EnvironmentId> used_environments;
    if (!replicas.empty()) {
      used_environments.push_back(cluster_->tenant(cluster_->server(writer).tenant).environment);
    }
    for (const auto& stats : greedy_order_) {
      if (static_cast<int>(replicas.size()) >= replication) {
        break;
      }
      if (std::find(used_environments.begin(), used_environments.end(), stats.environment) !=
          used_environments.end()) {
        continue;
      }
      ServerId server = PickServer(stats.tenant, has_space, rng);
      if (server != kInvalidServer) {
        replicas.push_back(server);
        used_environments.push_back(stats.environment);
      }
    }
    return replicas;
  }

  const Cluster* cluster_;
  const PlacementGrid* grid_;
  ReplicaPlacer::Options options_;
  std::vector<TenantPlacementStats> greedy_order_;
};

// A random small fleet: 1 to 14 tenants of 1 to 6 servers, environments
// shared between tenants, lumpy storage. Few or lumpy tenants leave grid
// cells empty.
Cluster RandomFleet(Rng& rng) {
  Cluster cluster;
  const int tenants = 1 + static_cast<int>(rng.NextBounded(14));
  const int environments = 1 + static_cast<int>(rng.NextBounded(static_cast<uint64_t>(tenants)));
  for (int t = 0; t < tenants; ++t) {
    PrimaryTenant tenant;
    tenant.environment = static_cast<EnvironmentId>(
        rng.NextBounded(static_cast<uint64_t>(environments)));
    tenant.name = "t" + std::to_string(t);
    tenant.reimage_rate = rng.Uniform(0.0, 2.0);
    tenant.average_utilization =
        UtilizationTrace(std::vector<double>(16, rng.Uniform(0.05, 0.9)));
    const TenantId id = cluster.AddTenant(std::move(tenant));
    auto trace =
        std::make_shared<const UtilizationTrace>(cluster.tenant(id).average_utilization);
    const int servers = 1 + static_cast<int>(rng.NextBounded(6));
    const int64_t blocks = rng.Bernoulli(0.2) ? 20000 : 100 + static_cast<int64_t>(
                                                                 rng.NextBounded(900));
    for (int s = 0; s < servers; ++s) {
      Server server;
      server.tenant = id;
      server.rack = t / 2;
      server.utilization = trace;
      server.harvestable_blocks = blocks;
      cluster.AddServer(std::move(server));
    }
  }
  return cluster;
}

// Draw for draw, the placer returns what the reference returns and leaves
// the Rng where the reference leaves it: on random fleets (empty cells
// included), with closed servers, 1 to 4 existing replicas and each option.
TEST(ReplicaPlacementOracleTest, DrawsAsTheReferenceDoes) {
  Rng setup(2026);
  int64_t calls = 0;
  int64_t failed_heals = 0;
  int64_t partial_places = 0;
  int64_t fleets_with_empty_cells = 0;
  for (int fleet = 0; fleet < 60; ++fleet) {
    const Cluster cluster = RandomFleet(setup);
    const PlacementGrid grid = PlacementGrid::Build(CollectPlacementStats(cluster));
    int empty_cells = 0;
    for (int r = 0; r < kGridDim; ++r) {
      for (int c = 0; c < kGridDim; ++c) {
        empty_cells += grid.cell(r, c).tenants.empty() ? 1 : 0;
      }
    }
    fleets_with_empty_cells += empty_cells > 0 ? 1 : 0;
    std::vector<ReplicaPlacer::Options> variants(3);
    variants[1].soft_constraints = true;
    variants[2].greedy_best_first = true;
    for (const ReplicaPlacer::Options& options : variants) {
      const ReplicaPlacer placer(&cluster, &grid, options);
      const ReferencePlacer reference(&cluster, &grid, options);
      for (int trial = 0; trial < 60; ++trial) {
        const double closed = std::array<double, 4>{0.0, 0.3, 0.7, 0.95}[trial % 4];
        const std::vector<uint8_t> open =
            OpenWhere(cluster, [&setup, closed](ServerId) { return !setup.Bernoulli(closed); });
        const uint64_t seed = setup.Next();
        const std::string where = "fleet " + std::to_string(fleet) + " soft " +
                                  std::to_string(options.soft_constraints) + " greedy " +
                                  std::to_string(options.greedy_best_first) + " trial " +
                                  std::to_string(trial);

        const auto writer = static_cast<ServerId>(setup.NextBounded(cluster.num_servers()));
        const int replication = 1 + static_cast<int>(setup.NextBounded(5));
        Rng rng(seed);
        Rng reference_rng(seed);
        const std::vector<ServerId> placed = placer.Place(writer, replication, {open}, rng);
        const std::vector<ServerId> want = reference.Place(
            writer, replication,
            [&open](ServerId s) { return open[static_cast<size_t>(s)] != 0; }, reference_rng);
        ASSERT_EQ(placed, want) << where;
        ASSERT_EQ(rng.Next(), reference_rng.Next()) << where;
        partial_places += static_cast<int>(placed.size()) < replication ? 1 : 0;

        std::vector<ServerId> existing;
        const size_t count = std::min<size_t>(1 + setup.NextBounded(4), cluster.num_servers());
        while (existing.size() < count) {
          const auto s = static_cast<ServerId>(setup.NextBounded(cluster.num_servers()));
          if (std::find(existing.begin(), existing.end(), s) == existing.end()) {
            existing.push_back(s);
          }
        }
        const ServerId healed = placer.PlaceAdditional(existing, open, rng);
        const ServerId want_healed = reference.PlaceAdditional(
            existing,
            [&open, &existing](ServerId s) {
              return open[static_cast<size_t>(s)] != 0 &&
                     std::find(existing.begin(), existing.end(), s) == existing.end();
            },
            reference_rng);
        ASSERT_EQ(healed, want_healed) << where;
        ASSERT_EQ(rng.Next(), reference_rng.Next()) << where;
        failed_heals += healed == kInvalidServer ? 1 : 0;
        calls += 2;
      }
    }
  }
  // The inputs reached the interesting cases.
  EXPECT_EQ(calls, 60 * 3 * 60 * 2);
  EXPECT_GT(fleets_with_empty_cells, 20);
  EXPECT_GT(failed_heals, 100);
  EXPECT_LT(failed_heals, calls / 2 - 100);
  EXPECT_GT(partial_places, 100);
}

}  // namespace
}  // namespace harvest
