// PlacementAuditStage: sample Algorithm-2 replica placements over the
// fleet's 3x3 placement grid and score their quality.

#include <cstdint>
#include <vector>

#include "src/core/placement_grid.h"
#include "src/core/replica_placement.h"
#include "src/driver/stage.h"
#include "src/storage/placement_quality.h"

namespace harvest {

PlacementAuditStageResult RunPlacementAuditStage(const DcContext& ctx, const Cluster& cluster) {
  const ScenarioConfig& config = *ctx.config;
  Rng rng(ctx.StreamSeed("placement"));
  PlacementGrid grid = PlacementGrid::Build(CollectPlacementStats(cluster));
  ReplicaPlacer placer(&cluster, &grid);
  PlacementQualityMonitor monitor(&cluster, &grid);

  const int replication = config.replications.empty() ? 3 : config.replications.front();
  const std::vector<uint8_t> every_server_open(cluster.num_servers(), 1);
  const ServerSpaceFilter always_space{every_server_open};
  int64_t partial = 0;
  std::vector<std::vector<ServerId>> replica_sets;
  replica_sets.reserve(static_cast<size_t>(config.placement_sample_blocks));
  for (int i = 0; i < config.placement_sample_blocks; ++i) {
    ServerId writer =
        static_cast<ServerId>(rng.NextBounded(static_cast<uint64_t>(cluster.num_servers())));
    replica_sets.push_back(placer.Place(writer, replication, always_space, rng));
    if (static_cast<int>(replica_sets.back().size()) < replication) {
      ++partial;
    }
  }
  const PlacementQualityReport quality = monitor.Summarize(replica_sets);

  PlacementAuditStageResult result;
  result.replication = replication;
  result.sampled_blocks = config.placement_sample_blocks;
  result.grid_balance_ratio = grid.BalanceRatio();
  result.grid_total_blocks = grid.total_blocks();
  result.partial_placements = partial;
  result.mean_quality_score = quality.mean_score;
  result.min_quality_score = quality.min_score;
  result.environment_violation_fraction = quality.environment_violations;
  return result;
}

}  // namespace harvest
