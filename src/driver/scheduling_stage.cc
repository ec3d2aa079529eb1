// SchedulingStage: the Algorithm-1 co-simulation, YARN-H against the
// primary-aware baseline on the same (optionally root-scaled) fleet, plus
// the per-class diagnostics that drive the ranking-weight investigation.

#include <algorithm>

#include "src/util/executor.h"
#include "src/driver/stage.h"
#include "src/experiments/cluster_scaling.h"
#include "src/experiments/scheduling_sim.h"
#include "src/signal/pattern.h"

namespace harvest {
namespace {

SchedulingRunResult FlattenRun(const SchedulingSimResult& result) {
  SchedulingRunResult run;
  run.jobs_arrived = result.jobs_arrived;
  run.jobs_completed = result.jobs_completed;
  run.average_execution_seconds = result.average_execution_seconds;
  run.total_kills = result.total_kills;
  run.average_total_utilization = result.average_total_utilization;
  run.average_primary_utilization = result.average_primary_utilization;
  run.has_storage = result.storage.accesses > 0;
  if (run.has_storage) {
    run.failed_access_fraction = result.storage.FailedAccessFraction();
  }
  for (int64_t count : result.containers_by_pattern) {
    run.containers += count;
  }
  run.has_energy = result.has_energy;
  run.energy = result.energy;
  run.fault_evictions = result.fault_evictions;
  run.forecast_degraded_seconds = result.forecast_degraded_seconds;
  return run;
}

}  // namespace

SchedulingStageResult RunSchedulingStage(const DcContext& ctx, const Cluster& cluster,
                                         const FaultTimeline& faults) {
  const ScenarioConfig& config = *ctx.config;
  const Cluster* sim_cluster = &cluster;
  Cluster rescaled;
  if (config.scheduling_target_utilization > 0.0) {
    rescaled = ScaleClusterUtilization(cluster, ScalingMethod::kRoot,
                                       config.scheduling_target_utilization);
    sim_cluster = &rescaled;
  }

  SchedulingSimOptions options;
  options.clustering = config.clustering;
  options.storage = config.scheduling_storage;
  options.horizon_seconds = config.scheduling_horizon_seconds;
  options.mean_interarrival_seconds = config.mean_interarrival_seconds;
  options.job_duration_factor = config.job_duration_factor;
  options.thresholds.short_below *= config.job_duration_factor;
  options.thresholds.long_above *= config.job_duration_factor;
  options.seed = ctx.StreamSeed("scheduling");
  // Power subsystem: both runs account energy under the same curve so the
  // H-vs-PT cost delta is apples-to-apples; the right-sizing and deferral
  // policies themselves are H-only (the simulation gates them on mode).
  options.power_accounting = config.power_accounting;
  options.energy_price = config.energy_price;
  options.dc_index = ctx.dc_index;
  options.price_phase_hours = config.price_phase_hours;
  options.rightsizing = config.rightsizing;
  options.park_threshold = config.park_threshold;
  options.defer_waves = config.defer_waves;
  options.defer_window_hours = config.defer_window_hours;
  options.defer_min_gain = config.defer_min_gain;
  options.power_cap_watts = config.power_cap_watts;
  // Fault injection: both the PT and H runs see the DC's one compiled
  // timeline (paired comparison); only the blackout degradation is
  // H-specific, gated inside the simulation. The rescale keeps every rack
  // and server id, so the timeline compiled on the unscaled fleet applies.
  if (!faults.empty()) {
    options.faults = &faults;
  }

  // The PT and H co-simulations are independent: each builds its own RNG
  // from the same stream seed, reads the (const) cluster and suite, and
  // writes its own result slot. Run them as two tasks on the deterministic
  // executor so a single-DC scenario still benefits from --threads; with a
  // task budget of 1 this degrades to the historical serial loop. Either
  // way the results are byte-identical.
  const SchedulerMode modes[2] = {SchedulerMode::kPrimaryAware, SchedulerMode::kHistory};
  SchedulingSimResult runs[2];
  ParallelForIndex(std::min(ctx.task_threads, 2), 2, [&](int i) {
    SchedulingSimOptions task_options = options;
    task_options.mode = modes[i];
    runs[i] = RunSchedulingSimulation(*sim_cluster, *ctx.suite, task_options);
  });
  SchedulingSimResult& baseline = runs[0];
  SchedulingSimResult& history = runs[1];

  SchedulingStageResult result;
  result.horizon_seconds = options.horizon_seconds;
  result.mean_interarrival_seconds = options.mean_interarrival_seconds;
  result.target_utilization = config.scheduling_target_utilization;
  result.storage_variant = StorageVariantName(config.scheduling_storage);
  result.primary_aware = FlattenRun(baseline);
  result.history = FlattenRun(history);
  result.history_improvement_percent =
      baseline.average_execution_seconds > 0.0
          ? 100.0 *
                (baseline.average_execution_seconds - history.average_execution_seconds) /
                baseline.average_execution_seconds
          : 0.0;

  result.class_diagnostics.reserve(history.class_diagnostics.size());
  for (const ClassSchedulingDiagnostics& diag : history.class_diagnostics) {
    SchedulingClassResult entry;
    entry.class_id = diag.class_id;
    entry.label = diag.label;
    entry.pattern = PatternName(diag.pattern);
    entry.containers = diag.containers;
    entry.kills = diag.kills;
    entry.total_lease_seconds = diag.lease_seconds;
    entry.mean_lease_seconds = diag.MeanLeaseSeconds();
    entry.selections = diag.selections;
    entry.rank_weight_contribution = diag.rank_weight_contribution;
    result.class_diagnostics.push_back(std::move(entry));
  }
  return result;
}

}  // namespace harvest
