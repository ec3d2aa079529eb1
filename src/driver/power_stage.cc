// PowerStage: folds the scheduling runs' energy ledgers into the per-DC
// report -- cost-per-container and the H-vs-PT energy / dollar savings.
// Pure arithmetic over the SchedulingStageResult (the accountants already
// integrated everything during the co-simulations), so this stage draws no
// RNG and touches no cluster state.

#include "src/driver/stage.h"
#include "src/power/price_curve.h"

namespace harvest {
namespace {

PowerRunResult FlattenEnergy(const SchedulingRunResult& run) {
  PowerRunResult out;
  const EnergyTotals& energy = run.energy;
  out.fleet_joules = energy.fleet_joules;
  out.container_joules = energy.container_joules;
  out.total_joules = energy.TotalJoules();
  out.cost_dollars = energy.cost_dollars;
  out.cost_per_container =
      run.containers > 0 ? energy.cost_dollars / static_cast<double>(run.containers) : 0.0;
  out.peak_power_watts = energy.peak_power_watts;
  out.slots_over_cap = energy.slots_over_cap;
  out.parked_server_seconds = energy.parked_server_seconds;
  out.park_events = energy.park_events;
  out.unpark_events = energy.unpark_events;
  out.forced_unparks = energy.forced_unparks;
  out.deferred_jobs = energy.deferred_jobs;
  out.deferred_seconds = energy.deferred_seconds;
  return out;
}

double SavingsPercent(double baseline, double history) {
  return baseline > 0.0 ? 100.0 * (baseline - history) / baseline : 0.0;
}

}  // namespace

PowerStageResult RunPowerStage(const DcContext& ctx, const SchedulingStageResult& scheduling) {
  const ScenarioConfig& config = *ctx.config;
  PowerStageResult result;
  // Re-derive this DC's curve exactly as the simulation did, so the echoed
  // canonical text matches what priced the ledgers.
  PriceCurve price = config.energy_price;
  price.ShiftPhase(static_cast<double>(ctx.dc_index) * config.price_phase_hours * 3600.0);
  result.price_curve = price.ToString();
  result.power_cap_watts = config.power_cap_watts;
  result.primary_aware = FlattenEnergy(scheduling.primary_aware);
  result.history = FlattenEnergy(scheduling.history);
  result.history_energy_savings_percent =
      SavingsPercent(result.primary_aware.total_joules, result.history.total_joules);
  result.history_cost_savings_percent =
      SavingsPercent(result.primary_aware.cost_dollars, result.history.cost_dollars);
  return result;
}

}  // namespace harvest
