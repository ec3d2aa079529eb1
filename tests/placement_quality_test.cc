#include "src/storage/placement_quality.h"

#include <gtest/gtest.h>
#include <memory>
#include <set>

#include "src/cluster/datacenter.h"
#include "src/storage/name_node.h"

namespace harvest {
namespace {

Cluster SmallDc(uint64_t seed) {
  Rng rng(seed);
  BuildOptions options;
  options.trace_slots = kSlotsPerDay;
  options.reimage_months = 1;
  options.scale = 0.2;
  options.per_server_traces = false;
  return BuildCluster(DatacenterByName("DC-9"), options, rng);
}

// Every block's live replica set, lost blocks as empty sets.
std::vector<std::vector<ServerId>> ReplicaSets(const NameNode& nn) {
  std::vector<std::vector<ServerId>> sets;
  for (BlockId b = 0; b < nn.num_blocks(); ++b) {
    sets.push_back(nn.ReplicaServers(b));
  }
  return sets;
}

TEST(PlacementQualityTest, FullyDiverseBlockScoresOne) {
  Cluster cluster = SmallDc(1);
  PlacementGrid grid = PlacementGrid::Build(CollectPlacementStats(cluster));
  PlacementQualityMonitor monitor(&cluster, &grid);
  // Find three tenants in pairwise-distinct rows and columns.
  std::vector<ServerId> replicas;
  std::set<int> rows;
  std::set<int> cols;
  for (const auto& tenant : cluster.tenants()) {
    auto [r, c] = grid.CellOfTenant(tenant.id);
    if (rows.count(r) == 0 && cols.count(c) == 0 && !tenant.servers.empty()) {
      replicas.push_back(tenant.servers[0]);
      rows.insert(r);
      cols.insert(c);
      if (replicas.size() == 3) {
        break;
      }
    }
  }
  ASSERT_EQ(replicas.size(), 3u);
  BlockPlacementQuality quality = monitor.ScoreBlock(replicas);
  EXPECT_DOUBLE_EQ(quality.environment_diversity, 1.0);
  EXPECT_DOUBLE_EQ(quality.row_diversity, 1.0);
  EXPECT_DOUBLE_EQ(quality.column_diversity, 1.0);
  EXPECT_DOUBLE_EQ(quality.Score(), 1.0);
}

TEST(PlacementQualityTest, SameTenantReplicasScoreLow) {
  Cluster cluster = SmallDc(2);
  PlacementGrid grid = PlacementGrid::Build(CollectPlacementStats(cluster));
  PlacementQualityMonitor monitor(&cluster, &grid);
  const auto& tenant = cluster.tenants()[0];
  ASSERT_GE(tenant.servers.size(), 3u);
  std::vector<ServerId> replicas(tenant.servers.begin(), tenant.servers.begin() + 3);
  BlockPlacementQuality quality = monitor.ScoreBlock(replicas);
  EXPECT_NEAR(quality.environment_diversity, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(quality.row_diversity, 1.0 / 3.0, 1e-12);
  EXPECT_LT(quality.Score(), 0.5);
}

TEST(PlacementQualityTest, EmptyReplicaSetIsZero) {
  Cluster cluster = SmallDc(3);
  PlacementGrid grid = PlacementGrid::Build(CollectPlacementStats(cluster));
  PlacementQualityMonitor monitor(&cluster, &grid);
  BlockPlacementQuality quality = monitor.ScoreBlock({});
  EXPECT_EQ(quality.replicas, 0);
  EXPECT_DOUBLE_EQ(quality.Score(), 0.0);
}

TEST(PlacementQualityTest, SummaryOfNothingPlacedIsZero) {
  Cluster cluster = SmallDc(3);
  PlacementGrid grid = PlacementGrid::Build(CollectPlacementStats(cluster));
  PlacementQualityMonitor monitor(&cluster, &grid);
  for (const std::vector<std::vector<ServerId>>& sets :
       {std::vector<std::vector<ServerId>>{}, std::vector<std::vector<ServerId>>{{}, {}}}) {
    PlacementQualityReport report = monitor.Summarize(sets);
    EXPECT_EQ(report.blocks, 0);
    EXPECT_DOUBLE_EQ(report.mean_score, 0.0);
    EXPECT_DOUBLE_EQ(report.min_score, 0.0);
    EXPECT_DOUBLE_EQ(report.environment_violations, 0.0);
  }
}

TEST(PlacementQualityTest, SummarySkipsEmptySets) {
  Cluster cluster = SmallDc(2);
  PlacementGrid grid = PlacementGrid::Build(CollectPlacementStats(cluster));
  PlacementQualityMonitor monitor(&cluster, &grid);
  const auto& tenant = cluster.tenants()[0];
  ASSERT_GE(tenant.servers.size(), 3u);
  const std::vector<ServerId> same_tenant(tenant.servers.begin(), tenant.servers.begin() + 3);
  const std::vector<ServerId> single = {tenant.servers[0]};
  const double low = monitor.ScoreBlock(same_tenant).Score();
  ASSERT_LT(low, 1.0);
  ASSERT_DOUBLE_EQ(monitor.ScoreBlock(single).Score(), 1.0);
  PlacementQualityReport report = monitor.Summarize({{}, same_tenant, {}, single, {}});
  EXPECT_EQ(report.blocks, 2);
  EXPECT_DOUBLE_EQ(report.mean_score, (low + 1.0) / 2.0);
  EXPECT_DOUBLE_EQ(report.min_score, low);
  EXPECT_DOUBLE_EQ(report.environment_violations, 0.5);
}

TEST(PlacementQualityTest, HistoryPlacementAuditsClean) {
  Cluster cluster = SmallDc(4);
  Rng rng(5);
  NameNodeOptions nn_options;
  nn_options.replication = 3;
  NameNode nn(&cluster, std::make_unique<HistoryPlacement>(&cluster), nn_options, &rng);
  for (int b = 0; b < 300; ++b) {
    nn.CreateBlock(static_cast<ServerId>(rng.NextBounded(cluster.num_servers())), 0.0);
  }
  PlacementGrid grid = PlacementGrid::Build(CollectPlacementStats(cluster));
  PlacementQualityMonitor monitor(&cluster, &grid);
  PlacementQualityReport report = monitor.Summarize(ReplicaSets(nn));
  EXPECT_EQ(report.blocks, 300);
  EXPECT_DOUBLE_EQ(report.environment_violations, 0.0);
  EXPECT_GT(report.mean_score, 0.85);
}

TEST(PlacementQualityTest, StockPlacementAuditsWorseThanHistory) {
  Cluster cluster = SmallDc(6);
  PlacementGrid grid = PlacementGrid::Build(CollectPlacementStats(cluster));
  PlacementQualityMonitor monitor(&cluster, &grid);
  auto audit = [&](std::unique_ptr<PlacementPolicy> policy) {
    Rng rng(7);
    NameNodeOptions nn_options;
    nn_options.replication = 3;
    NameNode nn(&cluster, std::move(policy), nn_options, &rng);
    for (int b = 0; b < 300; ++b) {
      nn.CreateBlock(static_cast<ServerId>(rng.NextBounded(cluster.num_servers())), 0.0);
    }
    return monitor.Summarize(ReplicaSets(nn));
  };
  PlacementQualityReport stock = audit(std::make_unique<StockPlacement>(&cluster));
  PlacementQualityReport history = audit(std::make_unique<HistoryPlacement>(&cluster));
  EXPECT_GT(history.mean_score, stock.mean_score);
  // Stock's rack locality correlates with environments: violations abound.
  EXPECT_GT(stock.environment_violations, 0.3);
}

TEST(PlacementQualityTest, FourWayBlocksSaturateRowDiversity) {
  Cluster cluster = SmallDc(8);
  PlacementGrid grid = PlacementGrid::Build(CollectPlacementStats(cluster));
  PlacementQualityMonitor monitor(&cluster, &grid);
  Rng rng(9);
  NameNodeOptions nn_options;
  nn_options.replication = 4;
  NameNode nn(&cluster, std::make_unique<HistoryPlacement>(&cluster), nn_options, &rng);
  for (int b = 0; b < 100; ++b) {
    nn.CreateBlock(static_cast<ServerId>(rng.NextBounded(cluster.num_servers())), 0.0);
  }
  PlacementQualityReport report = monitor.Summarize(ReplicaSets(nn));
  // A 4th replica must reuse one of 3 rows; the saturating denominator keeps
  // the score from penalizing that legitimate reuse.
  EXPECT_GT(report.mean_score, 0.85);
  EXPECT_DOUBLE_EQ(report.environment_violations, 0.0);
}

}  // namespace
}  // namespace harvest
