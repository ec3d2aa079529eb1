// Composable stage API for the harvest_sim driver. The end-to-end pipeline
// for one datacenter is a fixed sequence of typed stages
//
//   FleetBuild -> Clustering -> Scheduling -> Power -> PlacementAudit
//               -> Durability -> Availability -> Fault
//
// each a pure function of a DcContext (the scaled scenario config, the
// datacenter label/index, and an independently derived RNG stream) returning
// a plain result struct. No stage builds JSON: src/driver/result_json.cc
// renders the structs, so tests and the CI diff tool consume typed data
// instead of reparsing strings.
//
// Determinism contract: every random draw a stage makes flows from
// DcContext::StreamSeed(tag), where the per-DC seed is derived from the
// scenario seed and the datacenter *index* alone. Stages therefore never
// share RNG state across datacenters or across stages, which is what lets
// the driver run datacenters on a thread pool (src/util/executor.h) and
// still produce byte-identical output for any --threads value.

#ifndef HARVEST_SRC_DRIVER_STAGE_H_
#define HARVEST_SRC_DRIVER_STAGE_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/driver/scenario.h"
#include "src/jobs/dag.h"
#include "src/power/energy_accountant.h"
#include "src/signal/pattern.h"
#include "src/util/rng.h"

namespace harvest {

// Per-datacenter seed, a function of the scenario seed and the DC *index*
// only -- never of thread ids or execution order.
inline uint64_t DeriveDcSeed(uint64_t scenario_seed, int dc_index) {
  uint64_t state =
      scenario_seed ^ (0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(dc_index) + 1));
  return SplitMix64(state);
}

// Everything one datacenter's stages need. Cheap to copy; the config and
// suite are shared read-only across worker threads.
struct DcContext {
  const ScenarioConfig* config = nullptr;  // already scaled
  std::string label;                       // e.g. "DC-4" or "DC-9-testbed"
  int dc_index = 0;                        // position in the scenario's DC list
  uint64_t dc_seed = 0;                    // DeriveDcSeed(scenario seed, dc_index)
  // The shared TPC-DS suite (label-independent by design: every datacenter
  // runs the same 52 queries). Null when scheduling is disabled.
  const std::vector<JobDag>* suite = nullptr;
  // Worker threads this DC's stages may use for *intra*-DC task parallelism
  // (the independent PT and H scheduling co-simulations). The driver divides
  // its --threads budget across the DCs in flight; 1 = run stage tasks
  // serially. Purely an execution-layout knob: results are byte-identical
  // for any value, because the parallel tasks draw from separate RNGs and
  // write separate result slots.
  int task_threads = 1;
  // When non-empty, the fleet-build stage writes this DC's materialized
  // fleet to `<dump_traces_dir>/<label>.trace` (src/trace/trace_io) right
  // after building it. Each DC writes its own file, so exporting is as
  // thread-deterministic as the build itself.
  std::string dump_traces_dir;

  // The RNG stream for one stage of this datacenter.
  uint64_t StreamSeed(std::string_view stage_tag) const {
    return DerivedStreamSeed(dc_seed, stage_tag);
  }
};

// --- FleetBuildStage ------------------------------------------------------

struct FleetStageResult {
  size_t servers = 0;
  size_t tenants = 0;
  double average_primary_utilization = 0.0;
  int64_t harvestable_blocks = 0;
  int64_t reimage_events = 0;
  // Server count per capacity shape ("<cores>c<memory_mb>m", FleetTable
  // order). Feeds the self-describing trace MANIFEST only -- result_json
  // does not render it, so adding shapes changes no result byte.
  std::vector<std::pair<std::string, int64_t>> shape_counts;
};

struct FleetBuildOutput {
  Cluster cluster;  // consumed by every downstream stage
  FleetStageResult stats;
};

FleetBuildOutput RunFleetBuildStage(const DcContext& ctx);

// --- ClusteringStage ------------------------------------------------------

struct ClusteringClassResult {
  std::string label;
  std::string pattern;
  double average_utilization = 0.0;
  double peak_utilization = 0.0;
  size_t tenants = 0;
  size_t servers = 0;
  int total_cores = 0;
};

struct ClusteringStageResult {
  std::vector<ClusteringClassResult> classes;
  // Indexed by UtilizationPattern; rendered with PatternName().
  std::array<int, kNumPatterns> tenants_per_pattern{};
  // Accuracy against the generators' ground-truth patterns.
  double classifier_accuracy = 1.0;
};

ClusteringStageResult RunClusteringStage(const DcContext& ctx, const Cluster& cluster);

// --- SchedulingStage ------------------------------------------------------

struct SchedulingRunResult {
  int64_t jobs_arrived = 0;
  int64_t jobs_completed = 0;
  double average_execution_seconds = 0.0;
  int64_t total_kills = 0;
  double average_total_utilization = 0.0;
  double average_primary_utilization = 0.0;
  bool has_storage = false;
  double failed_access_fraction = 0.0;
  // Containers the run placed (sum over hosting patterns); the
  // cost-per-container denominator.
  int64_t containers = 0;
  // Energy / cost ledger from the run's accountant (power_accounting only).
  bool has_energy = false;
  EnergyTotals energy;
  // Fault-subsystem telemetry (fault_plan scenarios only). Carried here so
  // the FaultStage can report it; rendered in the "faults" block, not in the
  // scheduling results.
  int64_t fault_evictions = 0;
  double forecast_degraded_seconds = 0.0;
};

// Per-class diagnostics of the H run (src/experiments ClassSchedulingDiagnostics,
// flattened to driver types).
struct SchedulingClassResult {
  int class_id = 0;
  std::string label;
  std::string pattern;
  int64_t containers = 0;
  int64_t kills = 0;
  double total_lease_seconds = 0.0;
  double mean_lease_seconds = 0.0;
  int64_t selections = 0;
  double rank_weight_contribution = 0.0;
};

struct SchedulingStageResult {
  double horizon_seconds = 0.0;
  double mean_interarrival_seconds = 0.0;
  double target_utilization = 0.0;
  std::string storage_variant;
  // Max RM scratch-arena high water across the PT / H runs (run telemetry
  // copied into DcStageTiming; never rendered).
  int64_t arena_high_water_bytes = 0;
  SchedulingRunResult primary_aware;
  SchedulingRunResult history;
  double history_improvement_percent = 0.0;
  std::vector<SchedulingClassResult> class_diagnostics;
};

SchedulingStageResult RunSchedulingStage(const DcContext& ctx, const Cluster& cluster);

// --- PowerStage -----------------------------------------------------------
// Derives the per-DC energy / cost report from the scheduling stage's
// accountant ledgers (src/power): cost-per-container and the H-vs-PT energy
// and dollar savings. Pure arithmetic over SchedulingStageResult -- no RNG,
// no cluster access -- so it rides after scheduling at negligible cost.

struct PowerRunResult {
  double fleet_joules = 0.0;
  double container_joules = 0.0;
  double total_joules = 0.0;
  double cost_dollars = 0.0;
  double cost_per_container = 0.0;  // 0 when the run placed no containers
  double peak_power_watts = 0.0;
  int64_t slots_over_cap = 0;
  double parked_server_seconds = 0.0;
  int64_t park_events = 0;
  int64_t unpark_events = 0;
  int64_t forced_unparks = 0;
  int64_t deferred_jobs = 0;
  double deferred_seconds = 0.0;
};

struct PowerStageResult {
  // Canonical knob text of this DC's curve, after the per-DC phase shift.
  std::string price_curve;
  double power_cap_watts = 0.0;
  PowerRunResult primary_aware;
  PowerRunResult history;
  // Positive = the H policies (right-sizing, deferral) drew / spent less.
  double history_energy_savings_percent = 0.0;
  double history_cost_savings_percent = 0.0;
};

PowerStageResult RunPowerStage(const DcContext& ctx, const SchedulingStageResult& scheduling);

// --- PlacementAuditStage --------------------------------------------------

struct PlacementAuditStageResult {
  int replication = 3;
  int sampled_blocks = 0;
  double grid_balance_ratio = 0.0;
  int64_t grid_total_blocks = 0;
  int64_t partial_placements = 0;
  double mean_quality_score = 0.0;
  double min_quality_score = 0.0;
  double environment_violation_fraction = 0.0;
};

PlacementAuditStageResult RunPlacementAuditStage(const DcContext& ctx, const Cluster& cluster);

// --- DurabilityStage ------------------------------------------------------
// The Fig-15 grid: placement_kinds x replications, every cell an event-driven
// co-simulation task replaying the DC's one shared reimage/access timeline.

struct DurabilityCellResult {
  std::string placement;  // PlacementKindName
  int replication = 3;
  int64_t blocks = 0;
  double lost_percent = 0.0;
  int64_t reimage_events = 0;
  int64_t replicas_destroyed = 0;
  int64_t rereplications_completed = 0;
  int64_t under_replicated_blocks = 0;
  // Access load riding the timeline (access_rate > 0 only).
  int64_t accesses = 0;
  double failed_percent = 0.0;
};

struct DurabilityStageResult {
  // The grid axes, in cell order: cells[r * kinds + k].
  std::vector<std::string> placement_kinds;
  std::vector<int> replications;
  double access_rate = 0.0;
  std::vector<DurabilityCellResult> cells;
};

DurabilityStageResult RunDurabilityStage(const DcContext& ctx, const Cluster& cluster);

// --- AvailabilityStage ----------------------------------------------------
// The Fig-16 sweep: target_utilizations x placement_kinds, cells sharing one
// access schedule; cells[t * kinds + k].

struct AvailabilityCellResult {
  double target_utilization = 0.0;
  std::string placement;  // PlacementKindName
  double average_utilization = 0.0;
  int64_t accesses = 0;
  int64_t failed = 0;
  double failed_percent = 0.0;
};

struct AvailabilityStageResult {
  std::vector<std::string> placement_kinds;
  std::vector<double> target_utilizations;
  int replication = 3;
  std::vector<AvailabilityCellResult> cells;
};

AvailabilityStageResult RunAvailabilityStage(const DcContext& ctx, const Cluster& cluster);

// --- FaultStage -----------------------------------------------------------
// Fault injection (src/fault): compiles the scenario's fault_plan against
// this DC's fleet from the "fault" stream seed -- the same seed the
// scheduling stage compiles its copy from, so the two views of the plan are
// identical -- and replays a fault-aware storage co-simulation (Stock vs H)
// under the injected outages, partitions, and reimage waves. Runs last, only
// when a plan is set.

// One injected fault event, flattened for the JSON "faults" block.
struct FaultEventResult {
  std::string kind;        // FaultKindName
  double start_seconds = 0.0;
  double end_seconds = 0.0;
  int64_t rack = -1;       // -1 when the event is not rack-scoped
  int64_t servers_affected = 0;
};

// One placement flavor's storage co-simulation under the fault timeline.
struct FaultCellResult {
  std::string placement;  // PlacementKindName
  int64_t lost_blocks = 0;
  double loss_fraction = 0.0;
  int64_t rereplications = 0;
  int64_t heal_backlog_peak = 0;
  // Seconds from the first fault event to the heal that emptied the backlog
  // (0 when the backlog never filled).
  double heal_drain_seconds = 0.0;
};

struct FaultStageResult {
  std::string plan;  // canonical fault-plan text
  std::vector<FaultEventResult> events;
  // Integral of down servers over the horizon (server-seconds of injected
  // unavailability), and total telemetry-blackout seconds.
  double unavailability_server_seconds = 0.0;
  double blackout_seconds = 0.0;
  int replication = 3;
  std::vector<FaultCellResult> cells;  // kStock then kHistory
  // Degradation telemetry copied from the scheduling stage's fault-aware H
  // run: the H-vs-PT delta under fault, containers lost to outages, and how
  // long H ran with history weighting suspended.
  double history_improvement_percent = 0.0;
  int64_t fault_evictions = 0;
  double forecast_degraded_seconds = 0.0;
};

FaultStageResult RunFaultStage(const DcContext& ctx, const Cluster& cluster,
                               const SchedulingStageResult* scheduling);

// --- Composition ----------------------------------------------------------

// Wall-clock seconds per stage of one datacenter's pipeline. Pure telemetry:
// nothing downstream reads it and it is never rendered into the result JSON
// (harvest_sim prints it on stderr), so results are unaffected.
struct DcStageTiming {
  double fleet_build_seconds = 0.0;
  // High-water mark of the scheduling RM's per-slot scratch arena (bytes).
  int64_t arena_high_water_bytes = 0;
  double clustering_seconds = 0.0;
  double scheduling_seconds = 0.0;
  double power_seconds = 0.0;
  double placement_seconds = 0.0;
  double durability_seconds = 0.0;
  double availability_seconds = 0.0;
  double fault_seconds = 0.0;
  double total_seconds = 0.0;
};

struct DatacenterResult {
  std::string name;
  FleetStageResult fleet;
  ClusteringStageResult clustering;
  bool has_scheduling = false;
  SchedulingStageResult scheduling;
  bool has_power = false;
  PowerStageResult power;
  PlacementAuditStageResult placement;
  bool has_durability = false;
  DurabilityStageResult durability;
  bool has_availability = false;
  AvailabilityStageResult availability;
  bool has_faults = false;
  FaultStageResult faults;
};

// The whole run, typed and deterministic: everything here is rendered by
// result_json.cc, so it holds no wall-clock or layout telemetry (that lives
// in ScenarioRunResult, src/driver/pipeline.h). pipeline.cc summarizes it.
// Schema v3 made the storage experiments grid objects (axes + cells) with
// the full placement-kind coverage; v4 adds workload provenance
// ("trace_source": synthetic vs replay); v5 adds the per-DC "energy" block
// (power_accounting scenarios only); v6 adds the per-DC "faults" block
// (fault_plan scenarios only).
struct ScenarioResult {
  int schema_version = 6;
  std::string scenario;
  std::string description;
  uint64_t seed = 0;
  double scale = 1.0;
  // Where the fleets came from: "synthetic", or "replay:<trace_dir>" (the
  // configured path verbatim, never a resolved machine-local one).
  std::string trace_source = "synthetic";
  // `--set key=value` overrides applied to the preset, for provenance.
  std::vector<std::string> overrides;
  std::vector<DatacenterResult> datacenters;
};

// Runs the stage sequence for one datacenter, recording each stage's wall
// time in `timing`. Thread-safe for distinct contexts: everything mutable is
// local.
DatacenterResult RunDatacenterStages(const DcContext& ctx, DcStageTiming& timing);

}  // namespace harvest

#endif  // HARVEST_SRC_DRIVER_STAGE_H_
