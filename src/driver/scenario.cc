#include "src/driver/scenario.h"

#include <algorithm>
#include <cmath>

#include "src/cluster/datacenter.h"

namespace harvest {
namespace {

ScenarioConfig Dc9Testbed() {
  ScenarioConfig config;
  config.name = "dc9_testbed";
  config.description =
      "Paper §6.1 testbed: 102 servers, 21 DC-9 tenants (13 periodic / 3 constant / "
      "5 unpredictable), TPC-DS batch workload under YARN-H + Tez-H, HDFS-H storage, "
      "plus durability and availability experiments on the same fleet.";
  config.use_testbed = true;
  config.testbed_servers = 102;
  config.trace_slots = kSlotsPerDay * 2;
  config.reimage_months = 12;
  config.run_scheduling = true;
  config.scheduling_horizon_seconds = 4.0 * 3600.0;
  config.mean_interarrival_seconds = 300.0;
  config.scheduling_storage = StorageVariant::kHistory;
  config.run_durability = true;
  // ~102 servers hold ~55k harvestable block slots; keep the namespace under
  // half full so hard-constraint placement never degrades for lack of space
  // (the paper's production guardrail stops consuming space well before that).
  config.storage_blocks = 8000;
  config.replications = {3, 4};
  config.run_availability = true;
  config.availability_blocks = 5000;
  config.availability_accesses = 50000;
  config.availability_utilizations = {0.30, 0.50};
  return config;
}

ScenarioConfig FleetSweep() {
  ScenarioConfig config;
  config.name = "fleet_sweep";
  config.description =
      "Paper §6.3-6.5 simulation sweep: all ten datacenter profiles (DC-0..DC-9) at "
      "reduced fleet scale, each run through clustering, Algorithm-1 scheduling "
      "(PT vs H), Algorithm-2 placement audit, and a one-year durability comparison.";
  config.use_testbed = false;
  config.datacenters.reserve(static_cast<size_t>(kNumDatacenters));
  for (const auto& profile : AllDatacenterProfiles()) {
    config.datacenters.push_back(profile.name);
  }
  config.fleet_scale = 0.08;
  config.trace_slots = kSlotsPerDay * 2;
  config.reimage_months = 12;
  config.run_scheduling = true;
  config.scheduling_horizon_seconds = 8.0 * 3600.0;
  config.mean_interarrival_seconds = 240.0;
  config.job_duration_factor = 2.0;
  config.scheduling_storage = StorageVariant::kNone;
  config.scheduling_target_utilization = 0.45;
  config.run_durability = true;
  config.storage_blocks = 15000;
  config.replications = {3};
  config.run_availability = false;
  return config;
}

ScenarioConfig ReimageStorm() {
  ScenarioConfig config;
  config.name = "reimage_storm";
  config.description =
      "Durability stress of §4.2: DC-9 with boosted correlated mass-reimage events "
      "(half the tenants redeploy monthly, wiping 90% of their servers within 30 "
      "minutes); compares Stock vs history-based placement at 3x and 4x replication.";
  config.use_testbed = false;
  config.datacenters = {"DC-9"};
  config.fleet_scale = 0.3;
  config.trace_slots = kSlotsPerDay;
  config.reimage_months = 12;
  config.per_server_traces = false;
  config.reimage_storm = true;
  config.run_scheduling = false;
  config.run_durability = true;
  config.storage_blocks = 30000;
  config.replications = {3, 4};
  config.run_availability = false;
  return config;
}

ScenarioConfig HeteroShapes() {
  ScenarioConfig config;
  config.name = "hetero_shapes";
  config.description =
      "Heterogeneous server SKUs (12c/32GB, 24c/64GB, 48c/128GB mixed per server) "
      "across a calm (DC-2) and a bursty (DC-1) profile: exercises Algorithm-1 "
      "class capacities and Algorithm-2 placement when rack capacity is uneven, "
      "the machine-shape axis the related provisioning work evaluates.";
  config.use_testbed = false;
  config.datacenters = {"DC-1", "DC-2"};
  config.fleet_scale = 0.1;
  config.trace_slots = kSlotsPerDay * 2;
  config.reimage_months = 12;
  config.server_shapes = {{{12, 32 * 1024}, 0.5}, {{24, 64 * 1024}, 0.3},
                          {{48, 128 * 1024}, 0.2}};
  config.run_scheduling = true;
  config.scheduling_horizon_seconds = 4.0 * 3600.0;
  config.mean_interarrival_seconds = 240.0;
  config.job_duration_factor = 1.5;
  config.scheduling_storage = StorageVariant::kNone;
  config.scheduling_target_utilization = 0.45;
  config.run_durability = true;
  config.storage_blocks = 10000;
  config.replications = {3};
  config.run_availability = false;
  return config;
}

ScenarioConfig WeekHorizon() {
  ScenarioConfig config;
  config.name = "week_horizon";
  config.description =
      "Week-long horizon on DC-4 (the most temporally variable profile): seven days "
      "of 2-minute telemetry with weekend dips, a 24-hour scheduling co-simulation "
      "at 50% target utilization, and year-long durability plus an availability "
      "sweep -- the multi-day axis the dynamic-provisioning literature stresses.";
  config.use_testbed = false;
  config.datacenters = {"DC-4"};
  config.fleet_scale = 0.15;
  config.trace_slots = kSlotsPerDay * 7;
  config.reimage_months = 12;
  config.per_server_traces = false;
  config.run_scheduling = true;
  config.scheduling_horizon_seconds = 24.0 * 3600.0;
  config.mean_interarrival_seconds = 600.0;
  config.scheduling_storage = StorageVariant::kNone;
  config.scheduling_target_utilization = 0.50;
  config.run_durability = true;
  config.storage_blocks = 12000;
  config.replications = {3};
  config.run_availability = true;
  config.availability_blocks = 5000;
  config.availability_accesses = 30000;
  config.availability_utilizations = {0.30, 0.50, 0.70};
  return config;
}

ScenarioConfig StormUnderLoad() {
  ScenarioConfig config;
  config.name = "storm_under_load";
  config.description =
      "Failure injection under load: DC-9 with the §4.2 correlated reimage storm "
      "while the Algorithm-1 scheduler co-simulates TPC-DS against HDFS-H storage, "
      "then Stock-vs-H durability at 3x and 4x replication on the same stormy fleet.";
  config.use_testbed = false;
  config.datacenters = {"DC-9"};
  config.fleet_scale = 0.25;
  config.trace_slots = kSlotsPerDay;
  config.reimage_months = 12;
  config.per_server_traces = false;
  config.reimage_storm = true;
  config.run_scheduling = true;
  config.scheduling_horizon_seconds = 4.0 * 3600.0;
  config.mean_interarrival_seconds = 300.0;
  config.scheduling_storage = StorageVariant::kHistory;
  config.scheduling_target_utilization = 0.40;
  config.run_durability = true;
  config.storage_blocks = 20000;
  config.replications = {3, 4};
  config.run_availability = false;
  return config;
}

ScenarioConfig StorageStress() {
  ScenarioConfig config;
  config.name = "storage_stress";
  config.description =
      "Storage co-simulation stress: the full placement-kind x replication grid on a "
      "stormy DC-9 (correlated mass reimages) with a Poisson client-access load riding "
      "the same timeline, plus the availability sweep across three utilizations -- the "
      "year-horizon grid the event-driven NameNode accounting makes routine.";
  config.use_testbed = false;
  config.datacenters = {"DC-9"};
  config.fleet_scale = 0.25;
  config.trace_slots = kSlotsPerDay;
  config.reimage_months = 12;
  config.per_server_traces = false;
  config.reimage_storm = true;
  config.run_scheduling = false;
  config.run_durability = true;
  config.storage_blocks = 20000;
  config.replications = {3, 4};
  // ~12 accesses/hour over the 12-month timeline: ~105k reads observing the
  // namespace mid-heal, the failure mode pure Fig-15 runs never see.
  config.access_rate = 12.0;
  config.run_availability = true;
  config.availability_blocks = 8000;
  config.availability_accesses = 40000;
  config.availability_utilizations = {0.30, 0.50, 0.70};
  return config;
}

ScenarioConfig ReplayRegression() {
  ScenarioConfig config;
  config.name = "replay_regression";
  config.description =
      "Replays the committed reproducer trace for the fleet_sweep H-vs-PT regression "
      "(a DC-5 fleet captured with --dump-traces from the offending configuration: "
      "fleet_sweep knobs, fleet_scale 0.04, build seed 1) through the 45%-utilization "
      "scheduling co-simulation. Before the ranking/elbow/forecast fixes YARN-H "
      "trailed YARN-PT by ~19% here; the golden now pins H >= PT on this exact fleet.";
  config.trace_dir = "tests/traces/replay_regression";
  config.use_testbed = false;
  config.datacenters = {"DC-5"};
  // Provenance of the capture; a replayed fleet ignores these generator
  // knobs except trace_slots, which is validated against the file.
  config.fleet_scale = 0.04;
  config.trace_slots = kSlotsPerDay * 2;
  config.reimage_months = 12;
  config.run_scheduling = true;
  config.scheduling_horizon_seconds = 8.0 * 3600.0;
  config.mean_interarrival_seconds = 240.0;
  config.job_duration_factor = 2.0;
  config.scheduling_storage = StorageVariant::kNone;
  config.scheduling_target_utilization = 0.45;
  config.run_durability = false;
  config.run_availability = false;
  return config;
}

ScenarioConfig WeekHorizonReplay() {
  ScenarioConfig config;
  config.name = "week_horizon_replay";
  config.description =
      "Replays the committed full-size week_horizon fleet (DC-4, 905 servers, seven "
      "days of shared per-tenant telemetry, captured with --dump-traces at --scale=1 "
      "seed 42) through the 50%-utilization 24-hour scheduling co-simulation. After "
      "PR 5's ranking fixes this fleet still showed H trailing PT by ~30% at full "
      "size -- a gap the golden-scale runs masked; it has since closed (H +5.8%), "
      "and the golden plus the CI assert pin it against widening past -30% again.";
  config.trace_dir = "tests/traces/week_horizon_replay";
  config.use_testbed = false;
  config.datacenters = {"DC-4"};
  // Provenance of the capture; a replayed fleet ignores these generator
  // knobs except trace_slots, which is validated against the file.
  config.fleet_scale = 0.15;
  config.trace_slots = kSlotsPerDay * 7;
  config.reimage_months = 12;
  config.per_server_traces = false;
  config.run_scheduling = true;
  config.scheduling_horizon_seconds = 24.0 * 3600.0;
  config.mean_interarrival_seconds = 600.0;
  config.scheduling_storage = StorageVariant::kNone;
  config.scheduling_target_utilization = 0.50;
  config.run_durability = false;
  config.run_availability = false;
  return config;
}

ScenarioConfig DiurnalPricing() {
  ScenarioConfig config;
  config.name = "diurnal_pricing";
  config.description =
      "Energy- and price-aware harvesting: a bursty (DC-1) and a calm (DC-2) fleet "
      "under a diurnal $/kWh curve phase-shifted 8h between the DCs, with dynamic "
      "right-sizing parking primary-idle servers and batch-wave deferral shifting "
      "eligible H jobs into the day-ago forecast valley; reports joules, dollar cost "
      "and cost-per-container next to the H-vs-PT deltas.";
  config.use_testbed = false;
  config.datacenters = {"DC-1", "DC-2"};
  config.fleet_scale = 0.12;
  config.trace_slots = kSlotsPerDay * 2;
  config.reimage_months = 12;
  config.per_server_traces = false;
  config.run_scheduling = true;
  config.scheduling_horizon_seconds = 24.0 * 3600.0;
  config.mean_interarrival_seconds = 450.0;
  config.scheduling_storage = StorageVariant::kNone;
  // Low enough that real idle valleys survive the root-scaling -- parking
  // only pays on an underutilized fleet, the paper's core premise.
  config.scheduling_target_utilization = 0.30;
  config.power_accounting = true;
  config.energy_price = "diurnal:0.08,0.05,18";
  config.price_phase_hours = 8.0;
  config.rightsizing = true;
  config.park_threshold = 0.25;
  config.defer_waves = true;
  config.defer_min_gain = 0.12;
  config.run_durability = false;
  config.run_availability = false;
  return config;
}

ScenarioConfig PowerCap() {
  ScenarioConfig config;
  config.name = "power_cap";
  config.description =
      "Peak-power capping on DC-9: flat tariff, dynamic right-sizing, and a fleet "
      "power cap set below the uncapped peak so batch-wave deferral is forced "
      "whenever sampled draw exceeds it; reports cap violations, parked server-"
      "seconds and the H-vs-PT energy / cost deltas under the cap.";
  config.use_testbed = false;
  config.datacenters = {"DC-9"};
  config.fleet_scale = 0.2;
  config.trace_slots = kSlotsPerDay * 2;
  config.reimage_months = 12;
  config.per_server_traces = false;
  config.run_scheduling = true;
  config.scheduling_horizon_seconds = 8.0 * 3600.0;
  config.mean_interarrival_seconds = 240.0;
  config.job_duration_factor = 2.0;
  config.scheduling_storage = StorageVariant::kNone;
  config.scheduling_target_utilization = 0.40;
  config.power_accounting = true;
  config.energy_price = "flat:0.12";
  config.rightsizing = true;
  config.park_threshold = 0.15;
  config.defer_waves = true;
  config.defer_window_hours = 4.0;
  // ~70% of the uncapped sampled peak (measured with the cap disabled);
  // ScaledScenario scales it with the fleet, so it stays binding at any
  // --scale.
  config.power_cap_watts = 200000.0;
  config.run_durability = false;
  config.run_availability = false;
  return config;
}

ScenarioConfig Dc9TestbedReplay() {
  ScenarioConfig config;
  config.name = "dc9_testbed_replay";
  config.description =
      "Replays the committed full-size dc9_testbed fleet (102 servers, 21 DC-9 "
      "tenants, captured with --dump-traces at --scale=1 seed 42) through the same "
      "4-hour TPC-DS scheduling co-simulation against HDFS-H storage. The golden "
      "plus the CI assert pin the full-size H-vs-PT gap the scaled smoke runs mask, "
      "the same treatment week_horizon_replay gives its fleet.";
  config.trace_dir = "tests/traces/dc9_testbed_replay";
  // Provenance of the capture; a replayed fleet ignores these generator
  // knobs except trace_slots, which is validated against the file.
  config.use_testbed = true;
  config.testbed_servers = 102;
  config.trace_slots = kSlotsPerDay * 2;
  config.reimage_months = 12;
  config.run_scheduling = true;
  config.scheduling_horizon_seconds = 4.0 * 3600.0;
  config.mean_interarrival_seconds = 300.0;
  config.scheduling_storage = StorageVariant::kHistory;
  config.run_durability = false;
  config.run_availability = false;
  return config;
}

// Shared base of the three fault-injection presets: the 102-server testbed
// (one rack per tenant, 4-5 servers each, so rack-scoped faults hit ~5% of
// the fleet) with heal-storm backpressure enabled -- 4 in-flight heals per
// heal-lane group, 10-minute base retry backoff doubling to a 2-hour cap.
ScenarioConfig FaultPresetBase() {
  ScenarioConfig config;
  config.use_testbed = true;
  config.testbed_servers = 102;
  config.trace_slots = kSlotsPerDay * 2;
  config.reimage_months = 12;
  config.run_scheduling = true;
  config.mean_interarrival_seconds = 300.0;
  config.scheduling_storage = StorageVariant::kNone;
  config.scheduling_target_utilization = 0.45;
  config.storage_blocks = 8000;
  config.replications = {3};
  config.run_durability = false;
  config.run_availability = false;
  config.max_inflight_heals_per_shard = 4;
  config.heal_backoff_base_seconds = 600.0;
  config.heal_backoff_max_seconds = 7200.0;
  return config;
}

ScenarioConfig RackOutage() {
  ScenarioConfig config = FaultPresetBase();
  config.name = "rack_outage";
  config.description =
      "Correlated rack power loss on the DC-9 testbed: rack 1 (one tenant's five "
      "servers) vanishes two hours in and returns reimaged two hours later. The "
      "scheduler "
      "evicts and requeues the rack's containers; the fault-aware storage "
      "co-simulation reports the Stock-vs-H replica loss and the bounded heal "
      "backlog's peak and drain time under backpressure.";
  config.scheduling_horizon_seconds = 6.0 * 3600.0;
  config.fault_plan = "rack_outage:7200,1,7200";
  return config;
}

ScenarioConfig TelemetryBlackout() {
  ScenarioConfig config = FaultPresetBase();
  config.name = "telemetry_blackout";
  config.description =
      "Telemetry blackout on the DC-9 testbed: the first three hours of history "
      "are dark, so one day later RM-H's day-ago forecast windows read missing "
      "data and H gracefully degrades to live-availability placement for the "
      "blacked-out interval. The 30-hour horizon covers the degraded window; the "
      "faults block reports degraded seconds and the H-vs-PT delta under fault.";
  config.scheduling_horizon_seconds = 30.0 * 3600.0;
  config.fault_plan = "telemetry_blackout:3600,10800";
  return config;
}

ScenarioConfig PartitionHealStorm() {
  ScenarioConfig config = FaultPresetBase();
  config.name = "partition_heal_storm";
  config.description =
      "ToR partition plus a correlated reimage wave on the DC-9 testbed: rack 2 "
      "computes but is invisible to replication for three hours while 30% of the "
      "fleet reimages within 30 minutes -- a heal storm against a partitioned "
      "source rack. Exercises the per-shard in-flight heal budget, exponential "
      "retry backoff, and mid-heal source/target death requeues.";
  config.scheduling_horizon_seconds = 4.0 * 3600.0;
  config.fault_plan = "tor_partition:3600,2,10800+reimage_wave:3600,0.3,1800";
  return config;
}

}  // namespace

std::vector<ScenarioConfig> BuiltinScenarioList() {
  return {Dc9Testbed(),        FleetSweep(),        ReimageStorm(),
          HeteroShapes(),      WeekHorizon(),       StormUnderLoad(),
          StorageStress(),     ReplayRegression(),  WeekHorizonReplay(),
          DiurnalPricing(),    PowerCap(),          Dc9TestbedReplay(),
          RackOutage(),        TelemetryBlackout(), PartitionHealStorm()};
}

TraceSource MakeTraceSource(const ScenarioConfig& config) {
  return config.trace_dir.empty() ? TraceSource::Synthetic()
                                  : TraceSource::Replay(config.trace_dir);
}

std::vector<std::string> ScenarioLabels(const ScenarioConfig& config) {
  if (config.use_testbed) {
    return {"DC-9-testbed"};
  }
  return config.datacenters;
}

ScenarioConfig ScaledScenario(const ScenarioConfig& config, double scale) {
  ScenarioConfig scaled = config;
  if (scale == 1.0) {
    return scaled;
  }
  auto scale_count = [scale](int64_t value, int64_t floor_value) {
    return std::max(floor_value,
                    static_cast<int64_t>(std::llround(static_cast<double>(value) * scale)));
  };
  // The testbed needs at least two servers per tenant for its 21-tenant mix
  // to exercise every pattern.
  scaled.testbed_servers =
      static_cast<int>(scale_count(config.testbed_servers, 42));
  scaled.fleet_scale = config.fleet_scale * scale;
  scaled.storage_blocks = scale_count(config.storage_blocks, 1000);
  scaled.availability_blocks = scale_count(config.availability_blocks, 1000);
  scaled.availability_accesses = scale_count(config.availability_accesses, 5000);
  // Access volume scales with the fleet (a smaller smoke fleet should not
  // face the full-scale read load).
  scaled.access_rate = config.access_rate * scale;
  // A power cap is a fleet-wide wattage: a smaller fleet draws
  // proportionally less, so the cap shrinks with it to stay binding.
  scaled.power_cap_watts = config.power_cap_watts * scale;
  scaled.placement_sample_blocks =
      static_cast<int>(scale_count(config.placement_sample_blocks, 100));
  return scaled;
}

}  // namespace harvest
