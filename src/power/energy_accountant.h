// Energy / cost accountant for the scheduling co-simulation (the tentpole
// of the power subsystem).
//
// Two components, mirroring how the simulation models load:
//
//   * Fleet (slot) component: the primary tenants' draw plus platform idle
//     plus parked draw is piecewise-constant at telemetry-slot granularity
//     (primaries are trace-driven, parking transitions happen at ticks), so
//     it is integrated once per tick over [tick - dt, tick) using the trace
//     value at the interval start. The per-slot fleet draw is an exact
//     int64 milliwatt sum, computed once per telemetry group (the power
//     model is per SKU; see power_model.h) in one serial loop, so
//     --threads cannot move a byte (tests/power_oracle_test.cc audits it
//     against the dense per-server sum).
//
//   * Container (secondary) component: containers start and end at event
//     times, not slot boundaries, so their draw is accounted event-driven
//     and exactly -- active_per_core_mw * cores over [start, end) -- at
//     release / kill / finalize, in event order.
//
// Dollar cost applies the PriceCurve's closed-form integral to both
// components (constant power over each interval), accumulated in the same
// deterministic order as the energy.
//
// Parking power semantics: a park or unpark takes placement effect
// immediately (the RM's availability caches resync right away) but power
// effect at the NEXT slot boundary -- IntegrateSlot reads the parked counts
// in force during the integrated interval, i.e. the counts set at its
// start. The dense oracle reintegrates with the same convention.

#ifndef HARVEST_SRC_POWER_ENERGY_ACCOUNTANT_H_
#define HARVEST_SRC_POWER_ENERGY_ACCOUNTANT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/cluster/fleet_table.h"
#include "src/power/power_model.h"
#include "src/power/price_curve.h"

namespace harvest {

// One policy run's energy ledger. The accountant fills the tariff, energy /
// cost and cap fields; the scheduling layer adds its parking and deferral
// counters, so a single struct rides from the simulation to the JSON
// "energy" block.
struct EnergyTotals {
  // The tariff the ledger was priced under: the canonical text of the
  // (phase-shifted) curve and the cap, 0 when there is none.
  std::string price_curve;
  double power_cap_watts = 0.0;
  double fleet_joules = 0.0;      // slot-integrated idle + primary + parked
  double container_joules = 0.0;  // event-driven secondary containers
  double cost_dollars = 0.0;
  double peak_power_watts = 0.0;
  int64_t slots_over_cap = 0;          // power_cap_watts > 0 only
  double parked_server_seconds = 0.0;  // integral of the parked count
  int64_t park_events = 0;
  int64_t unpark_events = 0;
  int64_t forced_unparks = 0;  // live primary breached the park threshold
  int64_t deferred_jobs = 0;
  double deferred_seconds = 0.0;

  double TotalJoules() const { return fleet_joules + container_joules; }
};

class EnergyAccountant {
 public:
  // `table` must outlive the accountant. `power_cap_watts` <= 0 disables
  // cap telemetry.
  EnergyAccountant(const FleetTable* table, const PowerModel& model, PriceCurve price,
                   double power_cap_watts);

  // Fleet draw at time `t` in exact milliwatts. `group_parked` is the
  // per-telemetry-group parked count (nullptr = nothing parked).
  int64_t FleetMilliwatts(double t, const std::vector<int32_t>* group_parked) const;

  // Integrates the fleet component over [t0, t1) (one tick) and samples
  // peak / cap telemetry at the interval's draw plus the current secondary
  // draw.
  void IntegrateSlot(double t0, double t1, const std::vector<int32_t>* group_parked);

  // Secondary-container lifecycle: Start when placed, End exactly once per
  // container at release / kill / finalize with its true [start, end).
  void OnContainerStart(int cores);
  void OnContainerEnd(int cores, double start, double end);

  // Fleet + secondary draw sampled by the last IntegrateSlot (the deferral
  // gate's view of "current power").
  double last_power_watts() const { return last_power_watts_; }

  EnergyTotals& totals() { return totals_; }
  const EnergyTotals& totals() const { return totals_; }

 private:
  const FleetTable* table_;
  PowerModel model_;
  PriceCurve price_;
  int64_t secondary_mw_ = 0;  // running draw of live containers
  double last_power_watts_ = 0.0;
  EnergyTotals totals_;
};

}  // namespace harvest

#endif  // HARVEST_SRC_POWER_ENERGY_ACCOUNTANT_H_
