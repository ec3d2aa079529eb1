// DurabilityStage: the Fig-15 grid -- every placement kind at every
// configured replication factor, each cell an event-driven co-simulation
// task on the deterministic executor, all replaying the datacenter's one
// shared reimage/access timeline.
//
// RNG pairing: the timeline and the per-replication writer streams are
// shared by every kind, so Stock-vs-H (and any other kind pair) is a paired
// comparison -- identical reimage schedule, identical write workload,
// identical access times; only the policy's own draws differ.

#include <algorithm>
#include <string>

#include "src/util/executor.h"
#include "src/driver/stage.h"
#include "src/experiments/storage_cosim.h"
#include "src/trace/reimage.h"

namespace harvest {

DurabilityStageResult RunDurabilityStage(const DcContext& ctx, const Cluster& cluster) {
  const ScenarioConfig& config = *ctx.config;
  const uint64_t base_seed = ctx.StreamSeed("durability");

  StorageTimelineOptions timeline_options;
  timeline_options.reimage_horizon_seconds =
      static_cast<double>(config.reimage_months) * kSecondsPerMonth;
  timeline_options.access_rate_per_hour = config.access_rate;
  timeline_options.access_seed = DerivedStreamSeed(base_seed, "accesses");
  const StorageTimeline timeline = BuildStorageTimeline(cluster, timeline_options);

  DurabilityStageResult result;
  result.replications = config.replications;
  result.access_rate = config.access_rate;
  for (PlacementKind kind : config.placement_kinds) {
    result.placement_kinds.emplace_back(PlacementKindName(kind));
  }

  const int kinds = static_cast<int>(config.placement_kinds.size());
  const int cells = kinds * static_cast<int>(config.replications.size());
  result.cells.resize(static_cast<size_t>(cells));
  ParallelForIndex(std::min(ctx.task_threads, cells), cells, [&](int i) {
    const int r = i / kinds;
    const int k = i % kinds;
    const PlacementKind kind = config.placement_kinds[static_cast<size_t>(k)];
    const int replication = config.replications[static_cast<size_t>(r)];
    const std::string replication_tag = "r" + std::to_string(replication);

    StorageCosimOptions options;
    options.placement = kind;
    options.replication = replication;
    options.num_blocks = config.storage_blocks;
    // Shared across kinds at this replication: the paired write workload.
    options.writer_seed = DerivedStreamSeed(base_seed, "writers-" + replication_tag);
    options.policy_seed = DerivedStreamSeed(
        base_seed, std::string(PlacementKindName(kind)) + "-" + replication_tag);
    StorageCosimResult run = RunStorageCosim(cluster, timeline, options);

    DurabilityCellResult& cell = result.cells[static_cast<size_t>(i)];
    cell.placement = PlacementKindName(kind);
    cell.replication = replication;
    cell.blocks = config.storage_blocks;
    cell.lost_percent = run.lost_percent;
    cell.reimage_events = run.reimage_events;
    cell.replicas_destroyed = run.stats.replicas_destroyed;
    cell.rereplications_completed = run.stats.rereplications_completed;
    cell.under_replicated_blocks = run.under_replicated_blocks;
    cell.accesses = run.stats.accesses;
    cell.failed_percent = run.failed_access_percent;
  });
  return result;
}

}  // namespace harvest
