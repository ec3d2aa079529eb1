// Named end-to-end scenarios for the harvest_sim driver. A scenario fixes
// every knob of the pipeline (fleet construction, clustering, Algorithm-1
// scheduling, Algorithm-2 placement, durability / availability experiments)
// so that a (scenario, seed, scale) triple fully determines the run and its
// JSON output. The built-in presets mirror the paper's evaluation setups
// (the 102-server DC-9 testbed of §6.1, the ten-datacenter simulation sweep
// of §6.3-6.5, a correlated-reimaging storm stressing §4.2) plus scenario
// axes from the ROADMAP wishlist: heterogeneous server shapes, a week-long
// horizon, and a reimage storm under scheduling load. New presets are
// added to BuiltinScenarioList() (src/driver/scenario.cc), and any knob
// below can be overridden per run with `harvest_sim --set key=value`
// (src/driver/registry.h).

#ifndef HARVEST_SRC_DRIVER_SCENARIO_H_
#define HARVEST_SRC_DRIVER_SCENARIO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/cluster/datacenter.h"
#include "src/core/utilization_clustering.h"
#include "src/experiments/scheduling_sim.h"
#include "src/experiments/storage_cosim.h"
#include "src/trace/trace_source.h"
#include "src/trace/utilization_trace.h"

namespace harvest {

struct ScenarioConfig {
  std::string name;
  std::string description;

  // --- Fleet construction (src/trace generators + src/cluster builders) ---
  // When non-empty, fleets are REPLAYED from `<trace_dir>/<label>.trace`
  // files (recorded by `harvest_sim --dump-traces=DIR`; src/trace/trace_io)
  // instead of being generated, and every synthetic-generator knob below
  // (use_testbed, fleet_scale, trace_slots except as validation, storm and
  // shape knobs) is superseded by the recorded fleet. Relative paths resolve
  // against the working directory, then the repository root, so committed
  // reproducer traces replay from any build tree.
  std::string trace_dir;
  // When true the paper's 21-tenant DC-9 testbed mix is used and
  // `datacenters` is ignored.
  bool use_testbed = false;
  int testbed_servers = 102;
  std::vector<std::string> datacenters;
  double fleet_scale = 1.0;
  size_t trace_slots = kSlotsPerDay * 2;
  int reimage_months = 12;
  bool per_server_traces = true;
  // Reimaging storm: overrides the profile's mass-event knobs so that most
  // of a tenant's servers can be wiped within one 30-minute window.
  bool reimage_storm = false;
  double storm_monthly_prob = 0.5;
  double storm_fraction = 0.9;
  // Heterogeneous server SKU mix, sampled per server by weight. Empty =
  // homogeneous testbed shape (12 cores / 32 GB).
  std::vector<ServerShape> server_shapes;

  // --- Clustering service (src/signal FFT + src/core K-Means) ---
  ClusteringOptions clustering;

  // --- Algorithm-1 scheduling (src/scheduler via src/experiments) ---
  bool run_scheduling = true;
  double scheduling_horizon_seconds = 2.0 * 3600.0;
  double mean_interarrival_seconds = 300.0;
  double job_duration_factor = 1.0;
  // Storage flavor co-simulated with the scheduler (kNone = compute only).
  StorageVariant scheduling_storage = StorageVariant::kNone;
  // When positive, the fleet's utilization is root-scaled to this average
  // before the scheduling runs (the paper's §6.1 sweep methodology); history
  // only differentiates itself once primaries are busy enough to matter.
  double scheduling_target_utilization = 0.0;

  // --- Power / cost subsystem (src/power via src/experiments) ---
  // Energy and dollar accounting riding the scheduling co-simulation's tick
  // cadence; adds the per-DC "energy" JSON block. No effect without
  // run_scheduling.
  bool power_accounting = false;
  // Electricity price knob text: "flat:<$/kWh>" or
  // "diurnal:<base>,<amplitude>,<peak_hour>" ("" = flat:0.10). See
  // src/power/price_curve.h.
  std::string energy_price;
  // Shifts DC i's price peak later by i * price_phase_hours (fleets spread
  // across time zones / regional markets).
  double price_phase_hours = 0.0;
  // Dynamic right-sizing (H runs only): park primary-idle servers -- parked
  // servers draw parked watts and are invisible to placement -- and unpark
  // them when live or forecast primary demand returns.
  bool rightsizing = false;
  double park_threshold = 0.05;
  // Batch-wave deferral (H runs only): shift eligible medium / long jobs
  // into the upcoming valley of the fleet's day-ago utilization forecast
  // when the valley gains at least defer_min_gain -- or unconditionally
  // while sampled power exceeds power_cap_watts (0 = no cap).
  bool defer_waves = false;
  double defer_window_hours = 6.0;
  double defer_min_gain = 0.02;
  double power_cap_watts = 0.0;

  // --- Algorithm-2 placement audit (src/storage) ---
  int placement_sample_blocks = 500;

  // --- Storage co-simulation grid (src/experiments/storage_cosim) ---
  // The durability grid is placement_kinds x replications off one shared
  // reimage/access timeline; the availability sweep reruns the kind axis at
  // each target utilization.
  bool run_durability = true;
  int64_t storage_blocks = 20000;
  std::vector<int> replications = {3, 4};
  // Grid axis: which placement flavors to exercise (default: all five).
  std::vector<PlacementKind> placement_kinds = AllPlacementKinds();
  // Mean client accesses per hour injected into the durability timeline
  // (Poisson; 0 = the pure Fig-15 setup with no access load under reimages).
  double access_rate = 0.0;
  bool run_availability = true;
  int64_t availability_blocks = 10000;
  int64_t availability_accesses = 50000;
  std::vector<double> availability_utilizations = {0.30, 0.50};

  // Unread; goes with the benchmark change that stops perfbench/probe.cc reading it.
  int rm_shards = 0;
  // Unread; goes with the benchmark change that stops perfbench/probe.cc reading it.
  int nn_shards = 0;

  // --- Fault injection (src/fault) ----------------------------------------
  // Fault plan text: '+'-separated specs like "rack_outage:7200,1,7200"
  // ("" or "none" = fault-free; `harvest_sim --list-faults` prints the
  // grammar). A non-empty plan compiles to one FaultTimeline per DC from
  // the "fault" stream seed, drives degraded intervals inside the
  // scheduling co-simulation, and appends the FaultStage / "faults" JSON
  // block with fault-aware storage co-simulations.
  std::string fault_plan;
  // Graceful RM-H degradation during telemetry blackouts: fall back to
  // live-availability placement while the day-ago forecast window is dark.
  bool forecast_fallback = true;
  // NameNode heal-storm backpressure: per heal-lane group bound on in-flight heals
  // (0 = unbounded, the legacy behavior) and exponential retry backoff
  // bounds (base 0 = instant retry).
  int max_inflight_heals_per_shard = 0;
  double heal_backoff_base_seconds = 0.0;
  double heal_backoff_max_seconds = 7200.0;
};

// The built-in preset definitions, in stable order. Everyone else should go
// through AllScenarios() / FindScenario(), which build them once.
std::vector<ScenarioConfig> BuiltinScenarioList();

// The built-in presets, in BuiltinScenarioList() order, built on first use.
// Aborts if a preset has an empty name or shares one with another.
const std::vector<ScenarioConfig>& AllScenarios();

// Looks a preset up by name; nullptr when unknown.
const ScenarioConfig* FindScenario(std::string_view name);

// Scales the scenario's size knobs (fleet, block and access counts) by
// `scale`, clamped so tiny scales still produce a well-formed run. Horizons
// and thresholds are left alone: a scaled run is a smaller fleet under the
// same workload physics, suitable for smoke tests and CI. A replayed fleet
// (trace_dir set) keeps its recorded size regardless of scale.
ScenarioConfig ScaledScenario(const ScenarioConfig& config, double scale);

// The fleet source the scenario's trace_dir knob selects: synthetic
// generators when empty, directory replay otherwise.
TraceSource MakeTraceSource(const ScenarioConfig& config);

// The datacenter labels one run of `config` produces, in DC-index order
// ("DC-9-testbed" for testbed scenarios, the `datacenters` list otherwise).
// Shared by the pipeline, replay validation, and the trace-export manifest.
std::vector<std::string> ScenarioLabels(const ScenarioConfig& config);

}  // namespace harvest

#endif  // HARVEST_SRC_DRIVER_SCENARIO_H_
