#include "src/driver/result_json.h"

#include "src/driver/json_writer.h"
#include "src/signal/pattern.h"

namespace harvest {
namespace {

void WriteFleet(JsonWriter& json, const FleetStageResult& fleet) {
  json.Key("fleet").BeginObject();
  json.Field("servers", fleet.servers);
  json.Field("tenants", fleet.tenants);
  json.Field("average_primary_utilization", fleet.average_primary_utilization);
  json.Field("harvestable_blocks", fleet.harvestable_blocks);
  json.Field("reimage_events", fleet.reimage_events);
  json.EndObject();
}

void WritePerPattern(JsonWriter& json, const char* key,
                     const std::array<int, kNumPatterns>& counts) {
  json.Key(key).BeginObject();
  for (int p = 0; p < kNumPatterns; ++p) {
    json.Field(PatternName(static_cast<UtilizationPattern>(p)), counts[static_cast<size_t>(p)]);
  }
  json.EndObject();
}

void WriteClustering(JsonWriter& json, const ClusteringStageResult& clustering) {
  json.Key("clustering").BeginObject();
  json.Key("classes").BeginArray();
  for (const ClusteringClassResult& cls : clustering.classes) {
    json.BeginObject();
    json.Field("label", cls.label);
    json.Field("pattern", cls.pattern);
    json.Field("average_utilization", cls.average_utilization);
    json.Field("peak_utilization", cls.peak_utilization);
    json.Field("tenants", cls.tenants);
    json.Field("servers", cls.servers);
    json.Field("total_cores", cls.total_cores);
    json.EndObject();
  }
  json.EndArray();
  WritePerPattern(json, "tenants_per_pattern", clustering.tenants_per_pattern);
  WritePerPattern(json, "servers_per_pattern", clustering.servers_per_pattern);
  json.Field("classifier_accuracy", clustering.classifier_accuracy);
  const ClusteringReimageResult& reimages = clustering.reimages;
  json.Key("reimages").BeginObject();
  json.Field("months", reimages.months);
  json.Field("servers_at_most_one_per_month", reimages.servers_at_most_one_per_month);
  json.Field("tenants_at_most_one_per_server_month",
             reimages.tenants_at_most_one_per_server_month);
  json.Key("tenants_by_tertile_changes").BeginArray();
  for (int64_t tenants : reimages.tenants_by_tertile_changes) {
    json.Value(tenants);
  }
  json.EndArray();
  json.EndObject();
  json.EndObject();
}

void WriteSchedulingRun(JsonWriter& json, const char* key, const SchedulingRunResult& run) {
  json.Key(key).BeginObject();
  json.Field("jobs_arrived", run.jobs_arrived);
  json.Field("jobs_completed", run.jobs_completed);
  json.Field("average_execution_seconds", run.average_execution_seconds);
  json.Field("total_kills", run.total_kills);
  json.Field("average_total_utilization", run.average_total_utilization);
  json.Field("average_primary_utilization", run.average_primary_utilization);
  if (run.has_storage) {
    json.Field("failed_access_fraction", run.failed_access_fraction);
  }
  json.EndObject();
}

void WriteScheduling(JsonWriter& json, const SchedulingStageResult& scheduling) {
  json.Key("scheduling").BeginObject();
  json.Field("horizon_seconds", scheduling.horizon_seconds);
  json.Field("mean_interarrival_seconds", scheduling.mean_interarrival_seconds);
  json.Field("target_utilization", scheduling.target_utilization);
  json.Field("storage_variant", scheduling.storage_variant);
  WriteSchedulingRun(json, "primary_aware", scheduling.primary_aware);
  WriteSchedulingRun(json, "history", scheduling.history);
  json.Field("history_improvement_percent", scheduling.history_improvement_percent);
  json.Key("class_diagnostics").BeginArray();
  for (const SchedulingClassResult& cls : scheduling.class_diagnostics) {
    json.BeginObject();
    json.Field("class_id", cls.class_id);
    json.Field("label", cls.label);
    json.Field("pattern", cls.pattern);
    json.Field("containers", cls.containers);
    json.Field("kills", cls.kills);
    json.Field("total_lease_seconds", cls.total_lease_seconds);
    json.Field("mean_lease_seconds", cls.mean_lease_seconds);
    json.Field("selections", cls.selections);
    json.Field("rank_weight_contribution", cls.rank_weight_contribution);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
}

void WriteEnergyRun(JsonWriter& json, const char* key, const SchedulingRunResult& run,
                    bool has_cap) {
  const EnergyTotals& energy = run.energy;
  json.Key(key).BeginObject();
  json.Field("fleet_joules", energy.fleet_joules);
  json.Field("container_joules", energy.container_joules);
  json.Field("total_joules", energy.TotalJoules());
  json.Field("cost_dollars", energy.cost_dollars);
  json.Field("cost_per_container",
             run.containers > 0 ? energy.cost_dollars / static_cast<double>(run.containers)
                                : 0.0);
  json.Field("peak_power_watts", energy.peak_power_watts);
  if (has_cap) {
    json.Field("slots_over_cap", energy.slots_over_cap);
  }
  json.Field("parked_server_seconds", energy.parked_server_seconds);
  json.Field("park_events", energy.park_events);
  json.Field("unpark_events", energy.unpark_events);
  json.Field("forced_unparks", energy.forced_unparks);
  json.Field("deferred_jobs", energy.deferred_jobs);
  json.Field("deferred_seconds", energy.deferred_seconds);
  json.EndObject();
}

// Positive = the H policies (right-sizing, deferral) drew / spent less.
double SavingsPercent(double baseline, double history) {
  return baseline > 0.0 ? 100.0 * (baseline - history) / baseline : 0.0;
}

// The scheduling runs' ledgers. Both runs priced under the one tariff their
// accountants recorded, the DC's phase-shifted curve and the cap.
void WriteEnergy(JsonWriter& json, const SchedulingStageResult& scheduling) {
  const EnergyTotals& primary_aware = scheduling.primary_aware.energy;
  const EnergyTotals& history = scheduling.history.energy;
  const bool has_cap = primary_aware.power_cap_watts > 0.0;
  json.Key("energy").BeginObject();
  json.Field("price_curve", primary_aware.price_curve);
  if (has_cap) {
    json.Field("power_cap_watts", primary_aware.power_cap_watts);
  }
  WriteEnergyRun(json, "primary_aware", scheduling.primary_aware, has_cap);
  WriteEnergyRun(json, "history", scheduling.history, has_cap);
  json.Field("history_energy_savings_percent",
             SavingsPercent(primary_aware.TotalJoules(), history.TotalJoules()));
  json.Field("history_cost_savings_percent",
             SavingsPercent(primary_aware.cost_dollars, history.cost_dollars));
  json.EndObject();
}

void WritePlacement(JsonWriter& json, const PlacementAuditStageResult& placement) {
  json.Key("placement").BeginObject();
  json.Field("replication", placement.replication);
  json.Field("sampled_blocks", placement.sampled_blocks);
  json.Field("grid_balance_ratio", placement.grid_balance_ratio);
  json.Field("grid_total_blocks", placement.grid_total_blocks);
  json.Field("partial_placements", placement.partial_placements);
  json.Field("mean_quality_score", placement.mean_quality_score);
  json.Field("min_quality_score", placement.min_quality_score);
  json.Field("environment_violation_fraction", placement.environment_violation_fraction);
  json.EndObject();
}

// The full grid schema: both storage experiments render their axes (every
// placement kind, every replication / target) ahead of the cell list, so
// consumers can reshape cells without inferring the grid from cell order.
void WriteDurability(JsonWriter& json, const DurabilityStageResult& durability) {
  json.Key("durability").BeginObject();
  json.Key("placement_kinds").BeginArray();
  for (const std::string& kind : durability.placement_kinds) {
    json.Value(kind);
  }
  json.EndArray();
  json.Key("replications").BeginArray();
  for (int replication : durability.replications) {
    json.Value(replication);
  }
  json.EndArray();
  json.Field("access_rate", durability.access_rate);
  json.Key("cells").BeginArray();
  for (const DurabilityCellResult& cell : durability.cells) {
    json.BeginObject();
    json.Field("placement", cell.placement);
    json.Field("replication", cell.replication);
    json.Field("blocks", cell.blocks);
    json.Field("lost_percent", cell.lost_percent);
    json.Field("reimage_events", cell.reimage_events);
    json.Field("replicas_destroyed", cell.replicas_destroyed);
    json.Field("rereplications_completed", cell.rereplications_completed);
    json.Field("under_replicated_blocks", cell.under_replicated_blocks);
    if (durability.access_rate > 0.0) {
      json.Field("accesses", cell.accesses);
      json.Field("failed_percent", cell.failed_percent);
    }
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
}

void WriteAvailability(JsonWriter& json, const AvailabilityStageResult& availability) {
  json.Key("availability").BeginObject();
  json.Key("placement_kinds").BeginArray();
  for (const std::string& kind : availability.placement_kinds) {
    json.Value(kind);
  }
  json.EndArray();
  json.Key("target_utilizations").BeginArray();
  for (double target : availability.target_utilizations) {
    json.Value(target);
  }
  json.EndArray();
  json.Field("replication", availability.replication);
  json.Key("cells").BeginArray();
  for (const AvailabilityCellResult& cell : availability.cells) {
    json.BeginObject();
    json.Field("target_utilization", cell.target_utilization);
    json.Field("placement", cell.placement);
    json.Field("average_utilization", cell.average_utilization);
    json.Field("accesses", cell.accesses);
    json.Field("failed", cell.failed);
    json.Field("failed_percent", cell.failed_percent);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
}

void WriteFaults(JsonWriter& json, const FaultStageResult& faults,
                 const SchedulingStageResult& scheduling) {
  json.Key("faults").BeginObject();
  json.Field("plan", faults.plan);
  json.Key("events").BeginArray();
  for (const FaultEventResult& event : faults.events) {
    json.BeginObject();
    json.Field("kind", event.kind);
    json.Field("start_seconds", event.start_seconds);
    json.Field("end_seconds", event.end_seconds);
    if (event.rack >= 0) {
      json.Field("rack", event.rack);
    }
    json.Field("servers_affected", event.servers_affected);
    json.EndObject();
  }
  json.EndArray();
  json.Field("unavailability_server_seconds", faults.unavailability_server_seconds);
  json.Field("blackout_seconds", faults.blackout_seconds);
  json.Field("replication", faults.replication);
  json.Key("cells").BeginArray();
  for (const FaultCellResult& cell : faults.cells) {
    json.BeginObject();
    json.Field("placement", cell.placement);
    json.Field("lost_blocks", cell.lost_blocks);
    json.Field("loss_fraction", cell.loss_fraction);
    json.Field("rereplications", cell.rereplications);
    json.Field("heal_backlog_peak", cell.heal_backlog_peak);
    json.Field("heal_drain_seconds", cell.heal_drain_seconds);
    json.EndObject();
  }
  json.EndArray();
  // The fault-aware H run's degradation: the H-vs-PT delta under fault,
  // containers lost to outages, and how long H ran with history weighting
  // suspended. All 0 without a scheduling stage, whose result then stays
  // default-constructed.
  json.Field("history_improvement_percent", scheduling.history_improvement_percent);
  json.Field("fault_evictions", scheduling.history.fault_evictions);
  json.Field("forecast_degraded_seconds", scheduling.history.forecast_degraded_seconds);
  json.EndObject();
}

}  // namespace

void WriteDatacenterResult(JsonWriter& json, const DatacenterResult& dc) {
  json.BeginObject();
  json.Field("name", dc.name);
  WriteFleet(json, dc.fleet);
  WriteClustering(json, dc.clustering);
  if (dc.has_scheduling) {
    WriteScheduling(json, dc.scheduling);
    if (dc.scheduling.primary_aware.has_energy) {
      WriteEnergy(json, dc.scheduling);
    }
  }
  WritePlacement(json, dc.placement);
  if (dc.has_durability) {
    WriteDurability(json, dc.durability);
  }
  if (dc.has_availability) {
    WriteAvailability(json, dc.availability);
  }
  if (dc.has_faults) {
    WriteFaults(json, dc.faults, dc.scheduling);
  }
  json.EndObject();
}

std::string RenderScenarioJson(const ScenarioResult& result) {
  JsonWriter json;
  json.BeginObject();
  json.Field("schema_version", result.schema_version);
  json.Field("scenario", result.scenario);
  json.Field("description", result.description);
  json.Field("seed", result.seed);
  json.Field("scale", result.scale);
  json.Field("trace_source", result.trace_source);
  json.Key("overrides").BeginArray();
  for (const std::string& override_text : result.overrides) {
    json.Value(override_text);
  }
  json.EndArray();
  json.Key("datacenters").BeginArray();
  for (const DatacenterResult& dc : result.datacenters) {
    WriteDatacenterResult(json, dc);
  }
  json.EndArray();
  json.EndObject();
  return json.TakeString();
}

}  // namespace harvest
