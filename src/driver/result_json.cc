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
  json.Key("tenants_per_pattern").BeginObject();
  for (int p = 0; p < kNumPatterns; ++p) {
    json.Field(PatternName(static_cast<UtilizationPattern>(p)),
               clustering.tenants_per_pattern[static_cast<size_t>(p)]);
  }
  json.EndObject();
  json.Field("classifier_accuracy", clustering.classifier_accuracy);
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

void WritePowerRun(JsonWriter& json, const char* key, const PowerRunResult& run,
                   bool has_cap) {
  json.Key(key).BeginObject();
  json.Field("fleet_joules", run.fleet_joules);
  json.Field("container_joules", run.container_joules);
  json.Field("total_joules", run.total_joules);
  json.Field("cost_dollars", run.cost_dollars);
  json.Field("cost_per_container", run.cost_per_container);
  json.Field("peak_power_watts", run.peak_power_watts);
  if (has_cap) {
    json.Field("slots_over_cap", run.slots_over_cap);
  }
  json.Field("parked_server_seconds", run.parked_server_seconds);
  json.Field("park_events", run.park_events);
  json.Field("unpark_events", run.unpark_events);
  json.Field("forced_unparks", run.forced_unparks);
  json.Field("deferred_jobs", run.deferred_jobs);
  json.Field("deferred_seconds", run.deferred_seconds);
  json.EndObject();
}

void WriteEnergy(JsonWriter& json, const PowerStageResult& power) {
  const bool has_cap = power.power_cap_watts > 0.0;
  json.Key("energy").BeginObject();
  json.Field("price_curve", power.price_curve);
  if (has_cap) {
    json.Field("power_cap_watts", power.power_cap_watts);
  }
  WritePowerRun(json, "primary_aware", power.primary_aware, has_cap);
  WritePowerRun(json, "history", power.history, has_cap);
  json.Field("history_energy_savings_percent", power.history_energy_savings_percent);
  json.Field("history_cost_savings_percent", power.history_cost_savings_percent);
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

void WriteFaults(JsonWriter& json, const FaultStageResult& faults) {
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
  json.Field("history_improvement_percent", faults.history_improvement_percent);
  json.Field("fault_evictions", faults.fault_evictions);
  json.Field("forecast_degraded_seconds", faults.forecast_degraded_seconds);
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
  }
  if (dc.has_power) {
    WriteEnergy(json, dc.power);
  }
  WritePlacement(json, dc.placement);
  if (dc.has_durability) {
    WriteDurability(json, dc.durability);
  }
  if (dc.has_availability) {
    WriteAvailability(json, dc.availability);
  }
  if (dc.has_faults) {
    WriteFaults(json, dc.faults);
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
