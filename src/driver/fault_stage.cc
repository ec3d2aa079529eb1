// FaultStage: fault injection under correlated failures. Reports the fault
// plan's timeline, compiled once per DC from the "fault" stream seed and
// shared with the scheduling stage, and replays a fault-aware storage
// co-simulation (Stock vs H) with only the injected events driving replica
// loss: the reported loss, backlog peak and drain time are attributable to
// the plan alone, not to the background reimage schedule the durability
// grid measures.
//
// RNG pairing mirrors the durability stage: one shared timeline, one shared
// writer stream across kinds, per-kind policy streams.

#include <algorithm>
#include <string>

#include "src/driver/stage.h"
#include "src/experiments/storage_cosim.h"
#include "src/fault/fault_plan.h"
#include "src/util/executor.h"

namespace harvest {

FaultStageResult RunFaultStage(const DcContext& ctx, const Cluster& cluster,
                               const FaultTimeline& faults) {
  const ScenarioConfig& config = *ctx.config;
  const uint64_t base_seed = ctx.StreamSeed("fault");

  FaultStageResult result;
  result.plan = CanonicalFaultPlan(config.fault_plan);
  result.events.reserve(faults.events.size());
  double first_fault_start = -1.0;
  for (const FaultEvent& event : faults.events) {
    FaultEventResult entry;
    entry.kind = FaultKindName(event.kind);
    entry.start_seconds = event.start;
    entry.end_seconds = event.end;
    entry.rack = event.rack;
    entry.servers_affected = event.servers_affected;
    result.events.push_back(std::move(entry));
    if (first_fault_start < 0.0 || event.start < first_fault_start) {
      first_fault_start = event.start;
    }
  }
  for (const BlackoutInterval& blackout : faults.blackouts) {
    result.blackout_seconds += blackout.end - blackout.start;
  }

  // The storage timeline carries ONLY the fault events (no background
  // reimage schedule, no access load): the stage isolates the plan's blast
  // radius and the heal subsystem's response to it.
  StorageTimelineOptions timeline_options;
  const StorageTimeline timeline = BuildStorageTimeline(cluster, timeline_options, &faults);
  result.unavailability_server_seconds =
      faults.UnavailabilityServerSeconds(timeline.horizon_seconds);
  result.replication = config.replications.empty() ? 3 : config.replications.front();

  const PlacementKind kinds[2] = {PlacementKind::kStock, PlacementKind::kHistory};
  result.cells.resize(2);
  ParallelForIndex(std::min(ctx.task_threads, 2), 2, [&](int i) {
    StorageCosimOptions options;
    options.placement = kinds[i];
    options.replication = result.replication;
    options.num_blocks = config.storage_blocks;
    options.faults = &faults;
    options.max_inflight_heals_per_shard = config.max_inflight_heals_per_shard;
    options.heal_backoff_base_seconds = config.heal_backoff_base_seconds;
    options.heal_backoff_max_seconds = config.heal_backoff_max_seconds;
    // Shared across kinds: the paired write workload.
    options.writer_seed = DerivedStreamSeed(base_seed, "writers");
    options.policy_seed = DerivedStreamSeed(base_seed, PlacementKindName(kinds[i]));
    StorageCosimResult run = RunStorageCosim(cluster, timeline, options);

    FaultCellResult& cell = result.cells[static_cast<size_t>(i)];
    cell.placement = PlacementKindName(kinds[i]);
    cell.lost_blocks = run.stats.blocks_lost;
    cell.loss_fraction = run.stats.LossFraction();
    cell.rereplications = run.stats.rereplications_completed;
    cell.heal_backlog_peak = run.heal_backlog_peak;
    if (run.heal_backlog_peak > 0 && first_fault_start >= 0.0) {
      cell.heal_drain_seconds =
          std::max(0.0, run.heal_backlog_cleared_at - first_fault_start);
    }
  });
  return result;
}

}  // namespace harvest
