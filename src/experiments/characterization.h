// Characterization study helpers (paper §3, Figures 1-6): per-datacenter
// class mixes, reimage-frequency CDFs, and reimage-group stability, computed
// over the synthetic fleets the same way the paper computes them over
// AutoPilot telemetry.

#ifndef HARVEST_SRC_EXPERIMENTS_CHARACTERIZATION_H_
#define HARVEST_SRC_EXPERIMENTS_CHARACTERIZATION_H_

#include <string>
#include <vector>

#include "src/cluster/datacenter.h"
#include "src/core/utilization_clustering.h"
#include "src/trace/reimage.h"
#include "src/util/stats.h"

namespace harvest {

struct DatacenterCharacterization {
  std::string name;
  int num_tenants = 0;
  int num_servers = 0;
  // Fractions per pattern, indexed by UtilizationPattern.
  std::vector<double> tenant_fraction{0.0, 0.0, 0.0};
  std::vector<double> server_fraction{0.0, 0.0, 0.0};
  // Per-server average reimages/month over the horizon (Fig 4 CDF input).
  std::vector<double> server_reimage_rates;
  // Per-tenant average reimages/server/month (Fig 5 CDF input).
  std::vector<double> tenant_reimage_rates;
  // Per-tenant count of monthly reimage-group changes (Fig 6 CDF input).
  std::vector<int> group_changes;
  int group_change_transitions = 0;
};

struct CharacterizationOptions {
  // Months of reimage history (the paper studies three years).
  int months = 36;
  double cluster_scale = 1.0;
  uint64_t seed = 42;
};

// Characterizes one datacenter profile end to end: builds the fleet, runs
// the FFT classifier over the utilization traces, and accumulates reimage
// statistics over the horizon.
DatacenterCharacterization CharacterizeDatacenter(const DatacenterProfile& profile,
                                                  const CharacterizationOptions& options);

}  // namespace harvest

#endif  // HARVEST_SRC_EXPERIMENTS_CHARACTERIZATION_H_
