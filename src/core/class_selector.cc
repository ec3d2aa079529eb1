#include "src/core/class_selector.h"

#include <algorithm>
#include <numeric>

#include "src/util/logging.h"

namespace harvest {

RankingWeights RankingWeights::Default() {
  RankingWeights w{};
  auto set = [&w](JobType type, double periodic, double constant, double unpredictable) {
    w.weight[static_cast<int>(type)][static_cast<int>(UtilizationPattern::kPeriodic)] = periodic;
    w.weight[static_cast<int>(type)][static_cast<int>(UtilizationPattern::kConstant)] = constant;
    w.weight[static_cast<int>(type)][static_cast<int>(UtilizationPattern::kUnpredictable)] =
        unpredictable;
  };
  // Short jobs only need resources *now*: unpredictable first, constant last.
  set(JobType::kShort, /*periodic=*/2.0, /*constant=*/1.0, /*unpredictable=*/3.0);
  // Medium jobs ride the predictable part of the day: periodic first.
  set(JobType::kMedium, /*periodic=*/3.0, /*constant=*/2.0, /*unpredictable=*/1.0);
  // Long jobs need assurance far into the future: constant first.
  set(JobType::kLong, /*periodic=*/2.0, /*constant=*/3.0, /*unpredictable=*/1.0);
  return w;
}

ClassSelector::ClassSelector(const ClusteringSnapshot* snapshot, RankingWeights weights)
    : snapshot_(snapshot), weights_(weights) {
  for (const auto& row : weights_.weight) {
    for (double w : row) {
      HARVEST_CHECK(w >= 0.0) << "ranking weights must be non-negative, got " << w;
    }
  }
}

double ClassSelector::Headroom(JobType type, const UtilizationClass& cls,
                               const ClassState& state) const {
  double utilization;
  switch (type) {
    case JobType::kShort:
      // Knowing the current utilization is enough for a short job.
      utilization = state.current_utilization;
      break;
    case JobType::kMedium: {
      // A medium job outlives "now" but not the day: discount against the
      // history forecast of the class's near future, not the all-day
      // average. The average hid imminent diurnal ramps -- a periodic class
      // entering its busy phase kept looking as safe as a flat constant one,
      // which is where the excess YARN-H reserve kills of the fleet_sweep
      // regression came from.
      const double predicted = state.forecast_utilization >= 0.0
                                   ? state.forecast_utilization
                                   : cls.average_utilization;
      utilization = std::max(predicted, state.current_utilization);
      break;
    }
    case JobType::kLong: {
      // Long jobs want assurance over their (multi-hour) lifetime, not over
      // the whole horizon: the time-resolved forecast admits them to a
      // periodic class's trough and turns them away near its ramp, where the
      // horizon peak excluded the class categorically -- at small fleet
      // scales that walled whole single-tenant classes off for good.
      const double predicted = state.long_forecast_utilization >= 0.0
                                   ? state.long_forecast_utilization
                                   : cls.peak_utilization;
      utilization = std::max(predicted, state.current_utilization);
      break;
    }
    default:
      utilization = 1.0;
  }
  return std::clamp(1.0 - utilization, 0.0, 1.0);
}

ClassSelection ClassSelector::Select(JobType type, int required_cores,
                                     const std::vector<ClassState>& states, Rng& rng) const {
  ClassSelection selection;
  selection.job_type = type;
  const auto& classes = snapshot_->classes;
  HARVEST_CHECK(states.size() == classes.size())
      << "class states must align with clustering snapshot";

  // Weighted headroom per class (Algorithm 1 lines 5-7). Headroom is a
  // fraction; the class's *core* headroom (how many containers it could
  // actually host) is the fraction applied to live availability.
  std::vector<double> weighted(classes.size(), 0.0);
  std::vector<double> headroom(classes.size(), 0.0);
  std::vector<int> core_room(classes.size(), 0);
  for (size_t c = 0; c < classes.size(); ++c) {
    headroom[c] = Headroom(type, classes[c], states[c]);
    // Live availability already excludes primary usage + reserve; the
    // type-dependent headroom further discounts classes whose history says
    // the resources will not stay free for this job type.
    core_room[c] = CoreRoom(states[c].available_cores, HeadroomCores(headroom[c], classes[c]));
    // The pick probability is rank weight x *core* headroom, not the bare
    // headroom fraction: the RM balances load across eligible servers in
    // proportion to available resources (§5.3), and the class pick must do
    // the same or a 10-server class draws jobs as often as a 1000-server one
    // with equal headroom. Capacity-blind picks concentrated whole workloads
    // onto one big class in low-variation datacenters and made YARN-H suffer
    // *more* reserve kills than the PT baseline (the fleet_sweep 45%-target
    // regression); weighting by core room recovers PT's proportional spread
    // while the headroom baked into core_room keeps steering by history.
    weighted[c] = WeightedRoom(type, classes[c], core_room[c]);
  }

  // Single-class fit (lines 8-11).
  std::vector<double> fit_weights(classes.size(), 0.0);
  bool any_fit = false;
  for (size_t c = 0; c < classes.size(); ++c) {
    if (core_room[c] >= required_cores) {
      fit_weights[c] = weighted[c];
      any_fit = true;
    }
  }
  if (any_fit) {
    int chosen = rng.WeightedIndex(fit_weights);
    if (chosen >= 0) {
      selection.class_ids.push_back(classes[static_cast<size_t>(chosen)].id);
      selection.headrooms.push_back(headroom[static_cast<size_t>(chosen)]);
      return selection;
    }
  }

  // Multi-class combination (lines 12-14): keep drawing classes
  // probabilistically until the combined room covers the request.
  int64_t total_room = 0;
  for (size_t c = 0; c < classes.size(); ++c) {
    if (weighted[c] > 0.0) {
      total_room += core_room[c];
    }
  }
  if (total_room >= required_cores) {
    std::vector<double> remaining = weighted;
    int covered = 0;
    while (covered < required_cores) {
      int chosen = rng.WeightedIndex(remaining);
      if (chosen < 0) {
        break;
      }
      selection.class_ids.push_back(classes[static_cast<size_t>(chosen)].id);
      selection.headrooms.push_back(headroom[static_cast<size_t>(chosen)]);
      covered += core_room[static_cast<size_t>(chosen)];
      remaining[static_cast<size_t>(chosen)] = 0.0;
    }
    if (covered >= required_cores) {
      return selection;
    }
    selection.class_ids.clear();
    selection.headrooms.clear();
  }

  // No combination fits (line 16): do not pick classes.
  return selection;
}

// Select is empty exactly when the total below is short of the ask. With
// non-negative weights a class of positive weighted room has positive core
// room, so each such room is at most the total. So if the total is short of
// the ask, no such class fits alone, every single-fit weight is <= 0,
// WeightedIndex returns -1 without a draw, and the combination is skipped
// on the same total: empty, and nothing drawn. If the total covers the ask,
// a single-fit pick or the combination, which draws positive classes until
// their rooms cover it, returns classes. Skipping Select relies on the
// first half only.
bool ClassSelector::SelectsNothing(JobType type, int required_cores,
                                   std::span<const int> available_cores,
                                   std::span<const int> headroom_cores) const {
  const auto& classes = snapshot_->classes;
  HARVEST_CHECK(available_cores.size() == classes.size() &&
                headroom_cores.size() == classes.size())
      << "class cores must align with clustering snapshot";
  int64_t total_room = 0;
  for (size_t c = 0; c < classes.size(); ++c) {
    const int room = CoreRoom(available_cores[c], headroom_cores[c]);
    if (WeightedRoom(type, classes[c], room) > 0.0) {
      total_room += room;
    }
  }
  return total_room < required_cores;
}

}  // namespace harvest
