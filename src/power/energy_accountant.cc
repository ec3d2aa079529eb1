#include "src/power/energy_accountant.h"

#include <algorithm>

#include "src/scheduler/node_manager.h"

namespace harvest {

EnergyAccountant::EnergyAccountant(const FleetTable* table, const PowerModel& model,
                                   PriceCurve price, double power_cap_watts)
    : table_(table), model_(model), price_(price) {
  totals_.price_curve = price_.ToString();
  totals_.power_cap_watts = power_cap_watts;
}

int64_t EnergyAccountant::FleetMilliwatts(double t,
                                          const std::vector<int32_t>* group_parked) const {
  int64_t mw = 0;
  for (int g = 0; g < table_->num_groups(); ++g) {
    const size_t first = table_->group_begin(g);
    const int64_t size = static_cast<int64_t>(table_->group_end(g) - first);
    const int capacity = table_->capacity_cores()[first];
    const int32_t trace = table_->trace_index()[first];
    // Live primary cores, via the NM's shared rounding rule -- the same
    // whole-core value the heartbeat reports (group-constant: trace and
    // capacity are what define the group).
    const int primary =
        trace < 0 ? 0
                  : NodeManager::ForecastCoresFromPeak(table_->trace(trace)->AtTime(t),
                                                       capacity);
    const int64_t parked =
        group_parked == nullptr ? 0 : (*group_parked)[static_cast<size_t>(g)];
    const int64_t unparked = size - parked;
    mw += unparked * (model_.IdleMilliwatts(capacity) +
                      model_.active_per_core_mw * static_cast<int64_t>(primary)) +
          parked * model_.ParkedMilliwatts(capacity);
  }
  return mw;
}

void EnergyAccountant::IntegrateSlot(double t0, double t1,
                                     const std::vector<int32_t>* group_parked) {
  if (t1 <= t0) {
    return;
  }
  const double dt = t1 - t0;
  const int64_t fleet_mw = FleetMilliwatts(t0, group_parked);
  const double fleet_watts = static_cast<double>(fleet_mw) / 1000.0;
  totals_.fleet_joules += fleet_watts * dt;
  totals_.cost_dollars += price_.CostDollars(fleet_watts, t0, t1);
  if (group_parked != nullptr) {
    int64_t parked = 0;
    for (int32_t count : *group_parked) {
      parked += count;
    }
    totals_.parked_server_seconds += static_cast<double>(parked) * dt;
  }
  // Cap / peak telemetry: the interval's fleet draw plus the secondary draw
  // live right now (containers churn within the slot; this is the sampled
  // view, the energy integrals above and in OnContainerEnd are exact).
  const double watts = fleet_watts + static_cast<double>(secondary_mw_) / 1000.0;
  last_power_watts_ = watts;
  totals_.peak_power_watts = std::max(totals_.peak_power_watts, watts);
  if (totals_.power_cap_watts > 0.0 && watts > totals_.power_cap_watts) {
    ++totals_.slots_over_cap;
  }
}

void EnergyAccountant::OnContainerStart(int cores) {
  secondary_mw_ += model_.active_per_core_mw * static_cast<int64_t>(cores);
}

void EnergyAccountant::OnContainerEnd(int cores, double start, double end) {
  secondary_mw_ -= model_.active_per_core_mw * static_cast<int64_t>(cores);
  if (end <= start) {
    return;
  }
  const double watts =
      static_cast<double>(model_.active_per_core_mw * static_cast<int64_t>(cores)) / 1000.0;
  totals_.container_joules += watts * (end - start);
  totals_.cost_dollars += price_.CostDollars(watts, start, end);
}

}  // namespace harvest
