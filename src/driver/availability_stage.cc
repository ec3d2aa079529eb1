// AvailabilityStage: the Fig-16 sweep -- failed-access fraction across the
// placement-kind grid as the fleet is root-scaled across target
// utilizations. The scaled clusters are prepared once per target and the
// (target, kind) cells then run as independent co-simulation tasks on the
// deterministic executor, all drawing from one shared access schedule.

#include <algorithm>
#include <string>

#include "src/util/executor.h"
#include "src/driver/stage.h"
#include "src/experiments/cluster_scaling.h"
#include "src/experiments/storage_cosim.h"

namespace harvest {

AvailabilityStageResult RunAvailabilityStage(const DcContext& ctx, const Cluster& cluster) {
  const ScenarioConfig& config = *ctx.config;
  const uint64_t base_seed = ctx.StreamSeed("availability");

  AvailabilityStageResult result;
  result.target_utilizations = config.availability_utilizations;
  result.replication = config.replications.empty() ? 3 : config.replications.front();
  for (PlacementKind kind : config.placement_kinds) {
    result.placement_kinds.emplace_back(PlacementKindName(kind));
  }

  // One scaled fleet per target, shared read-only by that target's cells.
  std::vector<Cluster> scaled;
  std::vector<double> average_utilization;
  scaled.reserve(config.availability_utilizations.size());
  for (double target : config.availability_utilizations) {
    scaled.push_back(ScaleClusterUtilization(cluster, ScalingMethod::kRoot, target));
    average_utilization.push_back(scaled.back().AverageUtilization());
  }

  // One access schedule shared by every cell (server counts are unchanged by
  // utilization scaling, so the timeline is cluster-shape independent).
  StorageTimelineOptions timeline_options;
  timeline_options.uniform_accesses = config.availability_accesses;
  timeline_options.access_horizon_seconds = 30.0 * 24.0 * 3600.0;
  timeline_options.access_seed = DerivedStreamSeed(base_seed, "accesses");
  const StorageTimeline timeline = BuildStorageTimeline(cluster, timeline_options);

  const int kinds = static_cast<int>(config.placement_kinds.size());
  const int cells = kinds * static_cast<int>(config.availability_utilizations.size());
  result.cells.resize(static_cast<size_t>(cells));
  ParallelForIndex(std::min(ctx.task_threads, cells), cells, [&](int i) {
    const int t = i / kinds;
    const int k = i % kinds;
    const PlacementKind kind = config.placement_kinds[static_cast<size_t>(k)];
    const Cluster& fleet = scaled[static_cast<size_t>(t)];

    StorageCosimOptions options;
    options.placement = kind;
    options.replication = result.replication;
    options.num_blocks = config.availability_blocks;
    // Both systems hit the same 66% wall; placement is the only difference.
    options.primary_aware_access = true;
    // Shared across kinds and targets: the paired write workload.
    options.writer_seed = DerivedStreamSeed(base_seed, "writers");
    options.policy_seed = DerivedStreamSeed(
        base_seed, std::string(PlacementKindName(kind)) + "-t" + std::to_string(t));
    StorageCosimResult run = RunStorageCosim(fleet, timeline, options);

    AvailabilityCellResult& cell = result.cells[static_cast<size_t>(i)];
    cell.target_utilization = config.availability_utilizations[static_cast<size_t>(t)];
    cell.placement = PlacementKindName(kind);
    cell.average_utilization = average_utilization[static_cast<size_t>(t)];
    cell.accesses = run.stats.accesses;
    cell.failed = run.stats.failed_accesses;
    cell.failed_percent = run.failed_access_percent;
  });
  return result;
}

}  // namespace harvest
