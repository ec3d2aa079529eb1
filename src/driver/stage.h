// Composable stage API for the harvest_sim driver. The end-to-end pipeline
// for one datacenter is a fixed sequence of seven typed stages
//
//   FleetBuild -> Clustering -> Scheduling -> PlacementAudit
//               -> Durability -> Availability -> Fault
//
// each a pure function of a DcContext (the scaled scenario config, the
// datacenter label/index, and an independently derived RNG stream) returning
// a plain result struct. No stage builds JSON: src/driver/result_json.cc
// renders the structs, so tests and the CI diff tool consume typed data
// instead of reparsing strings. Figures that several stages would share are
// held once: the energy block and the fault block's scheduling figures are
// rendered from the scheduling runs' own results.
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
#include "src/fault/fault_plan.h"
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
  // (the independent PT and H scheduling co-simulations, the fault stage's
  // two storage runs and the storage grid's cells; each run is itself one
  // thread). The driver divides its --threads budget across the DCs in
  // flight; 1 = run stage tasks serially. Purely an execution-layout knob:
  // results are byte-identical for any value, because the parallel tasks
  // draw from separate RNGs and write separate result slots.
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

// Paper §3.3's reimage statistics (Figs 4-6) over the fleet's reimage
// schedules in [0, months), as integer counts.
struct ClusteringReimageResult {
  int months = 0;
  // Fig 4: servers averaging at most one reimage per month.
  int64_t servers_at_most_one_per_month = 0;
  // Fig 5: tenants averaging at most one reimage per server per month.
  int64_t tenants_at_most_one_per_server_month = 0;
  // Fig 6: [k] = tenants whose reimage-frequency tertile changed k times
  // over the months - 1 monthly transitions; `months` entries.
  std::vector<int64_t> tenants_by_tertile_changes;
};

struct ClusteringStageResult {
  std::vector<ClusteringClassResult> classes;
  // Indexed by UtilizationPattern; rendered with PatternName(). Tenants
  // per pattern is Fig 2, their servers per pattern Fig 3.
  std::array<int, kNumPatterns> tenants_per_pattern{};
  std::array<int, kNumPatterns> servers_per_pattern{};
  // Accuracy against the generators' ground-truth patterns.
  double classifier_accuracy = 1.0;
  ClusteringReimageResult reimages;
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
  // Energy / cost ledger from the run's accountant (power_accounting only),
  // rendered as the "energy" block.
  bool has_energy = false;
  EnergyTotals energy;
  // Fault-subsystem telemetry (fault_plan scenarios only), rendered in the
  // "faults" block, not in the scheduling results.
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
  SchedulingRunResult primary_aware;
  SchedulingRunResult history;
  double history_improvement_percent = 0.0;
  std::vector<SchedulingClassResult> class_diagnostics;
};

// `faults` is the DC's compiled fault timeline (empty without a fault plan).
SchedulingStageResult RunSchedulingStage(const DcContext& ctx, const Cluster& cluster,
                                         const FaultTimeline& faults);

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
// Fault injection (src/fault): reports the scenario's fault_plan, compiled
// once per DC (RunDatacenterStages) from the "fault" stream seed into the
// timeline the scheduling stage also runs under, and replays a fault-aware
// storage co-simulation (Stock vs H) under the injected outages,
// partitions, and reimage waves. Runs last, only when a plan is set.

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
  // unavailability, each server counted once however many outages hold
  // it), and total telemetry-blackout seconds.
  double unavailability_server_seconds = 0.0;
  double blackout_seconds = 0.0;
  int replication = 3;
  std::vector<FaultCellResult> cells;  // kStock then kHistory
};

FaultStageResult RunFaultStage(const DcContext& ctx, const Cluster& cluster,
                               const FaultTimeline& faults);

// --- Composition ----------------------------------------------------------

// Wall-clock seconds of one datacenter's pipeline: each stage that ran, in
// run order, named as its telemetry key ("scheduling" prints as
// scheduling_seconds). Pure telemetry: nothing downstream reads it and it is
// never rendered into the result JSON (harvest_sim prints it on stderr), so
// results are unaffected.
struct DcStageTiming {
  std::vector<std::pair<std::string, double>> stages;
  double total_seconds = 0.0;
};

struct DatacenterResult {
  std::string name;
  FleetStageResult fleet;
  ClusteringStageResult clustering;
  bool has_scheduling = false;
  SchedulingStageResult scheduling;
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
// (fault_plan scenarios only); v7 adds the clustering block's
// "servers_per_pattern" and "reimages" (paper §3, Figs 3-6).
struct ScenarioResult {
  int schema_version = 7;
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
