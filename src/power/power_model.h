// Per-SKU server power model (ROADMAP "energy- and price-aware harvesting").
//
// The reproduction's fleets are built from capacity shapes
// (BuildOptions::server_shapes), and the FleetTable groups servers into
// maximal runs of identical (trace, capacity). Power is modeled per SKU as
// an affine function of capacity cores, so -- like live primary cores and
// forecast cores -- a group's draw is constant within the group and the
// energy accountant integrates per telemetry group, not per server.
//
// All coefficients are integer MILLIWATTS. Per-slot fleet draw is then an
// exact int64 sum: the per-group sum equals the dense per-server sum term
// for term, which is what keeps the energy block byte-identical across
// --threads (the same argument as the RM's class-core aggregates). The
// numbers sketch a commodity 2-socket server: ~90 W idle at 12 cores,
// ~6.5 W per busy core (fully busy ~170 W), and a parked (suspended)
// server an order of magnitude below idle.
//
// The model deliberately has no per-preset knobs: the per-SKU variation
// enters through the capacity shapes the scenario already configures, and a
// fixed model keeps joules comparable across presets and PRs.

#ifndef HARVEST_SRC_POWER_POWER_MODEL_H_
#define HARVEST_SRC_POWER_POWER_MODEL_H_

#include <cstdint>

namespace harvest {

struct PowerModel {
  // Platform draw of an unparked server with the primary fully idle.
  int64_t idle_base_mw = 60000;
  int64_t idle_per_core_mw = 2500;
  // Marginal draw per busy core (primary or secondary container core).
  int64_t active_per_core_mw = 6500;
  // Draw of a parked server (suspend-to-RAM; NIC + BMC stay up).
  int64_t parked_base_mw = 8000;
  int64_t parked_per_core_mw = 250;

  int64_t IdleMilliwatts(int capacity_cores) const {
    return idle_base_mw + idle_per_core_mw * static_cast<int64_t>(capacity_cores);
  }
  int64_t ParkedMilliwatts(int capacity_cores) const {
    return parked_base_mw + parked_per_core_mw * static_cast<int64_t>(capacity_cores);
  }
};

}  // namespace harvest

#endif  // HARVEST_SRC_POWER_POWER_MODEL_H_
