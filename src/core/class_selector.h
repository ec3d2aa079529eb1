// Algorithm 1 of the paper (§4.1): given a batch job, select the utilization
// class (or classes) whose servers will most likely keep enough resources
// free for the job's entire execution.
//
//   * The job's type (short / medium / long) comes from its last run.
//   * The job's maximum concurrent resource need comes from a breadth-first
//     traversal of its DAG.
//   * Each class's *headroom* for a job type is:
//       short  : 1 - current average CPU utilization
//       medium : 1 - max(forecast peak utilization, current utilization)
//                (forecast = the day-ago history window RM-H placement uses;
//                 falls back to the class window average without one)
//       long   : 1 - max(long-window forecast peak, current utilization)
//                (twice the medium window; falls back to the class's
//                 sustained peak without one)
//   * Classes are ranked per type with weights (long prefers constant, short
//     prefers unpredictable, medium prefers periodic) and one class is picked
//     probabilistically proportional to rank weight x core headroom (the
//     headroom fraction applied to the class's live capacity, mirroring the
//     RM's available-resource balancing); when no single class fits, multiple
//     classes are combined; when nothing fits, the job is not scheduled.

#ifndef HARVEST_SRC_CORE_CLASS_SELECTOR_H_
#define HARVEST_SRC_CORE_CLASS_SELECTOR_H_

#include <algorithm>
#include <span>
#include <vector>

#include "src/core/job_history.h"
#include "src/core/utilization_clustering.h"
#include "src/util/rng.h"

namespace harvest {

// Ranking weights W[job type][pattern]; higher weight = higher ranking.
// Non-negative: ClassSelector's emptiness test relies on it.
struct RankingWeights {
  // Indexed [JobType][UtilizationPattern].
  double weight[kNumJobTypes][kNumPatterns];

  // The paper's ranking: long -> constant, periodic, unpredictable;
  // short -> unpredictable, periodic, constant; medium -> periodic first.
  static RankingWeights Default();
};

// A class's instantaneous scheduling state, provided by the caller (RM-H
// aggregates it from node heartbeats).
struct ClassState {
  int class_id = 0;
  // Current average CPU utilization of the class's servers, in [0, 1].
  double current_utilization = 0.0;
  // Cores the class can currently host for secondary tenants (capacity minus
  // primary usage, reserve, and existing secondary allocations).
  int available_cores = 0;
  // History-based forecasts of the class's peak utilization over the near
  // future, read from the same day-ago telemetry RM-H task placement uses:
  // `forecast_utilization` looks kMinForecastWindowSeconds ahead (medium
  // jobs), `long_forecast_utilization` twice that (long jobs). Discounting
  // against the time-resolved forecast instead of whole-horizon statistics
  // is what lets jobs ride a periodic class through its trough while still
  // avoiding it near a ramp -- a class whose tenant saturates at its daily
  // peak is unusable *then*, not for the entire horizon. Negative = no
  // forecast available; the selector falls back to the class's window
  // average (medium) / sustained peak (long).
  double forecast_utilization = -1.0;
  double long_forecast_utilization = -1.0;
};

struct ClassSelection {
  // Selected class ids, empty when the job cannot be placed anywhere.
  std::vector<int> class_ids;
  JobType job_type = JobType::kMedium;
  // Headroom (fraction) of each selected class at selection time.
  std::vector<double> headrooms;

  bool empty() const { return class_ids.empty(); }
};

class ClassSelector {
 public:
  // `weights` must be non-negative (checked).
  ClassSelector(const ClusteringSnapshot* snapshot,
                RankingWeights weights = RankingWeights::Default());

  // Headroom of class `cls` for a job of `type` (Algorithm 1 lines 6-8):
  //   short  : 1 - current
  //   medium : 1 - max(forecast (fallback: window average), current)
  //   long   : 1 - max(long forecast (fallback: sustained peak), current)
  double Headroom(JobType type, const UtilizationClass& cls, const ClassState& state) const;

  // The cores a class's headroom allows a job type: int(headroom x
  // total_cores). Its inputs (utilization and forecasts) change only with
  // the telemetry slot, so a caller may cache it per slot and job type.
  static int HeadroomCores(double headroom, const UtilizationClass& cls) {
    return static_cast<int>(headroom * cls.total_cores);
  }

  // A class's core room for a job type: the containers it could actually
  // host, its live available cores capped by its headroom cores. Select and
  // SelectsNothing both size classes with this one rule.
  static int CoreRoom(int available_cores, int headroom_cores) {
    return std::min(available_cores, headroom_cores);
  }

  // Runs Algorithm 1. `states` must align with snapshot->classes by index.
  // `required_cores` is the job's maximum concurrent resource need.
  ClassSelection Select(JobType type, int required_cores, const std::vector<ClassState>& states,
                        Rng& rng) const;

  // True exactly when Select returns no class for an ask of `required_cores`
  // (>= 1) on classes with these available cores and headroom cores (both
  // aligned with snapshot->classes, the latter HeadroomCores for `type`):
  // when the core rooms of the classes with positive weighted room add up to
  // less than the ask. An empty Select draws nothing from its Rng, so a
  // caller may skip a selection this rules out without moving any stream.
  bool SelectsNothing(JobType type, int required_cores, std::span<const int> available_cores,
                      std::span<const int> headroom_cores) const;

  const ClusteringSnapshot& snapshot() const { return *snapshot_; }
  const RankingWeights& weights() const { return weights_; }

 private:
  // A class's pick weight: rank weight x core room. Select picks and
  // combines only classes whose weighted room is positive.
  double WeightedRoom(JobType type, const UtilizationClass& cls, int core_room) const {
    return static_cast<double>(core_room) *
           weights_.weight[static_cast<int>(type)][static_cast<int>(cls.pattern)];
  }

  const ClusteringSnapshot* snapshot_;
  RankingWeights weights_;
};

}  // namespace harvest

#endif  // HARVEST_SRC_CORE_CLASS_SELECTOR_H_
