// Node Manager (paper §5.1, §5.3): per-server agent that tracks the primary
// tenant's core/memory usage, reports availability to the Resource Manager in
// heartbeats, and -- in primary-aware modes -- replenishes the burst reserve
// by killing containers from youngest to oldest when the primary expands.

#ifndef HARVEST_SRC_SCHEDULER_NODE_MANAGER_H_
#define HARVEST_SRC_SCHEDULER_NODE_MANAGER_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/scheduler/container.h"

namespace harvest {

class NodeManager {
 public:
  // `server` must outlive the node manager; its trace is read only when live
  // or forecast primary cores are asked for.
  NodeManager(const Server* server, Resources reserve, SchedulerMode mode);

  const Server& server() const { return *server_; }

  // Primary cores in use at `t`, rounded up to whole cores (NM-H reporting
  // rule). In Stock mode the NM does not see the primary tenant at all, but
  // the value is still used by the interference model.
  int PrimaryCores(double t) const { return server_->PrimaryCoresAt(t); }

  // Resources the heartbeat reports as available for secondary containers.
  //   Stock       : capacity - secondary allocations (primary invisible)
  //   PT / History: capacity - reserve - primary usage - secondary allocations
  Resources AvailableForSecondary(double t) const;

  // RM-H's history-based availability (goal G3): predicts the primary
  // tenant's peak usage over the next `window_seconds` from the same
  // time-of-day window one day earlier -- an honest forecast that is sharp
  // for periodic tenants, flat for constant tenants, and uninformative for
  // unpredictable tenants (exactly the paper's "historical data is a good
  // predictor for ~75% of servers"). The discount is the larger of the live
  // usage and the forecast. Falls back to live-only in Stock mode.
  Resources AvailableForTask(double t, double window_seconds) const;

  // Cached-input variants for the ResourceManager's incremental accounting:
  // the same arithmetic as AvailableForSecondary / AvailableForTask with the
  // trace-dependent inputs (live primary cores, forecast cores) supplied by
  // the caller. Both entry points share one implementation, which is what
  // keeps the RM's per-slot caches bit-identical to direct recomputation.
  Resources AvailableForSecondaryGiven(int primary_cores) const;
  Resources AvailableForTaskGiven(int primary_cores, int forecast_cores) const;

  // Forecast primary cores over [t, t + window] based on the previous day's
  // telemetry, rounded up like the live reporting. Implemented in integer
  // slot arithmetic (the helpers below) so the ResourceManager's sliding-
  // window maximum provably inspects the identical sample set.
  int ForecastPrimaryCores(double t, double window_seconds) const;

  // Number of telemetry samples ForecastPrimaryCores inspects for a window.
  // Two windows with the same sample count yield identical forecasts; the
  // RM keys its forecast cache on this.
  static int ForecastSampleCount(double window_seconds) {
    return static_cast<int>(window_seconds / kSlotSeconds) + 2;
  }

  // First trace slot the forecast window inspects: the same time of day one
  // day earlier, at the slot resolution EnsureSlot caches on.
  static int64_t ForecastStartSlot(double t) {
    return static_cast<int64_t>(std::floor(t / kSlotSeconds)) -
           static_cast<int64_t>(kSlotsPerDay);
  }

  // The trace value one forecast sample reads: negative slots clamp to the
  // trace start (mirroring UtilizationTrace::AtTime before the horizon).
  static double ForecastSampleAt(const UtilizationTrace& trace, int64_t slot) {
    return trace.AtSlot(static_cast<size_t>(std::max<int64_t>(0, slot)));
  }

  // Shared rounding rule: peak utilization -> whole forecast cores.
  static int ForecastCoresFromPeak(double peak_utilization, int capacity_cores) {
    int cores = static_cast<int>(
        std::ceil(peak_utilization * static_cast<double>(capacity_cores) - 1e-9));
    return std::min(capacity_cores, std::max(0, cores));
  }

  void AddContainer(const Container& container);
  // Removes by container id; false when unknown.
  bool RemoveContainer(ContainerId id);

  // Replenishes the reserve: kills containers youngest-first until
  // primary + allocations + reserve fit in capacity. Stock mode never kills.
  // Returns the killed containers (AMs must re-run their tasks).
  std::vector<Container> EnforceReserve(double t);

  // Evicts everything at once (server power loss in the fault subsystem).
  // Returns the evicted containers; the node is left empty.
  std::vector<Container> RemoveAllContainers();

  // Cores by which primary + secondary exceed capacity at `t` (only possible
  // in Stock mode); drives the interference model of Figures 10 and 12.
  int OvercommitCores(double t) const;

  // Total CPU utilization (primary + secondary) as a fraction of capacity,
  // capped at 1; the paper reports the testbed moving from 33% to 54%.
  double TotalUtilization(double t) const;

  Resources allocated() const { return allocated_; }
  bool idle() const { return containers_.empty(); }

 private:
  const Server* server_;
  Resources reserve_;
  SchedulerMode mode_;
  Resources allocated_{0, 0};
  // Kept ordered by start time (append order); EnforceReserve kills from the
  // back (youngest first).
  std::vector<Container> containers_;
};

}  // namespace harvest

#endif  // HARVEST_SRC_SCHEDULER_NODE_MANAGER_H_
