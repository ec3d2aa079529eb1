#include "src/core/class_selector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace harvest {
namespace {

// Builds a snapshot with one class per pattern and controllable utilization.
ClusteringSnapshot MakeSnapshot(double periodic_avg, double periodic_peak, double constant_avg,
                                double constant_peak, double wild_avg, double wild_peak,
                                int cores_per_class = 1000) {
  ClusteringSnapshot snapshot;
  auto add = [&snapshot, cores_per_class](UtilizationPattern pattern, double avg, double peak) {
    UtilizationClass cls;
    cls.id = static_cast<int>(snapshot.classes.size());
    cls.pattern = pattern;
    cls.label = PatternName(pattern);
    cls.average_utilization = avg;
    cls.peak_utilization = peak;
    cls.total_cores = cores_per_class;
    snapshot.classes.push_back(cls);
  };
  add(UtilizationPattern::kPeriodic, periodic_avg, periodic_peak);
  add(UtilizationPattern::kConstant, constant_avg, constant_peak);
  add(UtilizationPattern::kUnpredictable, wild_avg, wild_peak);
  return snapshot;
}

std::vector<ClassState> MakeStates(const ClusteringSnapshot& snapshot, double current,
                                   int available) {
  std::vector<ClassState> states;
  for (const auto& cls : snapshot.classes) {
    states.push_back(ClassState{cls.id, current, available});
  }
  return states;
}

ClassState StateWith(double current, double forecast = -1.0) {
  ClassState state;
  state.current_utilization = current;
  state.forecast_utilization = forecast;
  return state;
}

TEST(ClassSelectorTest, HeadroomDefinitionsPerJobType) {
  ClusteringSnapshot snapshot = MakeSnapshot(0.3, 0.7, 0.2, 0.25, 0.4, 0.9);
  ClassSelector selector(&snapshot);
  const UtilizationClass& periodic = snapshot.classes[0];
  // Short: 1 - current only.
  EXPECT_NEAR(selector.Headroom(JobType::kShort, periodic, StateWith(0.5)), 0.5, 1e-12);
  // Medium without a forecast: 1 - max(avg, current).
  EXPECT_NEAR(selector.Headroom(JobType::kMedium, periodic, StateWith(0.1)), 0.7, 1e-12);
  EXPECT_NEAR(selector.Headroom(JobType::kMedium, periodic, StateWith(0.6)), 0.4, 1e-12);
  // Long: 1 - max(peak, current).
  EXPECT_NEAR(selector.Headroom(JobType::kLong, periodic, StateWith(0.1)), 0.3, 1e-12);
  EXPECT_NEAR(selector.Headroom(JobType::kLong, periodic, StateWith(0.8)), 0.2, 1e-12);
}

TEST(ClassSelectorTest, MediumHeadroomPrefersForecastOverAverage) {
  ClusteringSnapshot snapshot = MakeSnapshot(0.3, 0.7, 0.2, 0.25, 0.4, 0.9);
  ClassSelector selector(&snapshot);
  const UtilizationClass& periodic = snapshot.classes[0];
  // A forecast supersedes the all-day average entirely: the class about to
  // ramp (forecast 0.65 > avg 0.3) loses headroom...
  EXPECT_NEAR(selector.Headroom(JobType::kMedium, periodic, StateWith(0.1, 0.65)), 0.35,
              1e-12);
  // ...and one entering its trough (forecast 0.1 < avg 0.3) gains it.
  EXPECT_NEAR(selector.Headroom(JobType::kMedium, periodic, StateWith(0.2, 0.1)), 0.8, 1e-12);
  // Live utilization still floors the discount.
  EXPECT_NEAR(selector.Headroom(JobType::kMedium, periodic, StateWith(0.7, 0.1)), 0.3, 1e-12);
  // Short and long job types ignore the forecast.
  EXPECT_NEAR(selector.Headroom(JobType::kShort, periodic, StateWith(0.5, 0.9)), 0.5, 1e-12);
  EXPECT_NEAR(selector.Headroom(JobType::kLong, periodic, StateWith(0.1, 0.1)), 0.3, 1e-12);
}

TEST(ClassSelectorTest, HeadroomClampsToZero) {
  ClusteringSnapshot snapshot = MakeSnapshot(0.3, 1.0, 0.2, 0.3, 0.4, 0.9);
  ClassSelector selector(&snapshot);
  EXPECT_DOUBLE_EQ(selector.Headroom(JobType::kLong, snapshot.classes[0], StateWith(0.0)),
                   0.0);
}

TEST(ClassSelectorTest, PickProbabilityScalesWithClassCapacity) {
  // Two classes, identical pattern and headroom, 9:1 capacity split: the
  // pick must follow capacity (the RM's available-resource balancing), not
  // treat the classes as equals -- capacity-blind picks are what overloaded
  // single classes in low-variation fleets.
  ClusteringSnapshot snapshot;
  for (int c = 0; c < 2; ++c) {
    UtilizationClass cls;
    cls.id = c;
    cls.pattern = UtilizationPattern::kConstant;
    cls.label = "constant-" + std::to_string(c);
    cls.average_utilization = 0.3;
    cls.peak_utilization = 0.4;
    cls.total_cores = c == 0 ? 9000 : 1000;
    snapshot.classes.push_back(cls);
  }
  ClassSelector selector(&snapshot);
  Rng rng(9);
  std::vector<ClassState> states;
  states.push_back(ClassState{0, 0.3, 4500, -1.0});
  states.push_back(ClassState{1, 0.3, 500, -1.0});
  int big_picks = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    ClassSelection sel = selector.Select(JobType::kMedium, 10, states, rng);
    ASSERT_EQ(sel.class_ids.size(), 1u);
    if (sel.class_ids[0] == 0) {
      ++big_picks;
    }
  }
  // Expected share 90%; allow generous sampling slack.
  EXPECT_GT(big_picks, trials * 80 / 100);
}

TEST(ClassSelectorTest, LongJobsPreferConstantClasses) {
  // Same live conditions everywhere: only history + weights discriminate.
  ClusteringSnapshot snapshot = MakeSnapshot(0.3, 0.6, 0.3, 0.35, 0.3, 0.6);
  ClassSelector selector(&snapshot);
  Rng rng(1);
  int constant_picks = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    ClassSelection sel = selector.Select(JobType::kLong, 10, MakeStates(snapshot, 0.3, 500), rng);
    ASSERT_EQ(sel.class_ids.size(), 1u);
    if (snapshot.classes[static_cast<size_t>(sel.class_ids[0])].pattern ==
        UtilizationPattern::kConstant) {
      ++constant_picks;
    }
  }
  // Constant has both the higher weight (3 vs 2/1) and more peak headroom.
  EXPECT_GT(constant_picks, trials / 2);
}

TEST(ClassSelectorTest, ShortJobsPreferUnpredictableClasses) {
  ClusteringSnapshot snapshot = MakeSnapshot(0.3, 0.6, 0.3, 0.35, 0.3, 0.9);
  ClassSelector selector(&snapshot);
  Rng rng(2);
  int wild_picks = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    ClassSelection sel =
        selector.Select(JobType::kShort, 10, MakeStates(snapshot, 0.3, 500), rng);
    ASSERT_EQ(sel.class_ids.size(), 1u);
    if (snapshot.classes[static_cast<size_t>(sel.class_ids[0])].pattern ==
        UtilizationPattern::kUnpredictable) {
      ++wild_picks;
    }
  }
  // Weight 3/6 of total at equal headroom (short ignores peak history).
  EXPECT_GT(wild_picks, trials * 40 / 100);
}

TEST(ClassSelectorTest, NoFitReturnsEmpty) {
  ClusteringSnapshot snapshot = MakeSnapshot(0.3, 0.6, 0.3, 0.4, 0.3, 0.7);
  ClassSelector selector(&snapshot);
  Rng rng(3);
  // Demands more cores than every class combined can host.
  ClassSelection sel =
      selector.Select(JobType::kMedium, 10000, MakeStates(snapshot, 0.3, 100), rng);
  EXPECT_TRUE(sel.empty());
}

TEST(ClassSelectorTest, MultiClassCombinationWhenNoSingleClassFits) {
  ClusteringSnapshot snapshot = MakeSnapshot(0.3, 0.6, 0.3, 0.4, 0.3, 0.7);
  ClassSelector selector(&snapshot);
  Rng rng(4);
  // Each class can host 100 cores; the job needs 250 -> needs >= 3 classes.
  ClassSelection sel =
      selector.Select(JobType::kMedium, 250, MakeStates(snapshot, 0.3, 100), rng);
  ASSERT_FALSE(sel.empty());
  EXPECT_GE(sel.class_ids.size(), 3u);
  // No class repeats.
  std::vector<int> ids = sel.class_ids;
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

TEST(ClassSelectorTest, SaturatedClassIsNeverPicked) {
  ClusteringSnapshot snapshot = MakeSnapshot(0.3, 0.6, 0.3, 0.4, 0.3, 0.7);
  ClassSelector selector(&snapshot);
  Rng rng(5);
  std::vector<ClassState> states = MakeStates(snapshot, 0.3, 500);
  states[1].available_cores = 0;  // constant class has nothing free
  for (int i = 0; i < 200; ++i) {
    ClassSelection sel = selector.Select(JobType::kLong, 10, states, rng);
    ASSERT_FALSE(sel.empty());
    EXPECT_NE(sel.class_ids[0], 1);
  }
}

TEST(ClassSelectorTest, FullyUtilizedClassHasZeroWeight) {
  ClusteringSnapshot snapshot = MakeSnapshot(0.3, 0.6, 0.3, 0.4, 0.3, 0.7);
  ClassSelector selector(&snapshot);
  Rng rng(6);
  std::vector<ClassState> states = MakeStates(snapshot, 0.3, 500);
  states[2].current_utilization = 1.0;  // unpredictable class saturated now
  for (int i = 0; i < 200; ++i) {
    ClassSelection sel = selector.Select(JobType::kShort, 10, states, rng);
    ASSERT_FALSE(sel.empty());
    EXPECT_NE(sel.class_ids[0], 2);
  }
}

TEST(ClassSelectorTest, SelectionReportsJobTypeAndHeadrooms) {
  ClusteringSnapshot snapshot = MakeSnapshot(0.3, 0.6, 0.3, 0.4, 0.3, 0.7);
  ClassSelector selector(&snapshot);
  Rng rng(7);
  ClassSelection sel = selector.Select(JobType::kLong, 10, MakeStates(snapshot, 0.2, 500), rng);
  ASSERT_EQ(sel.class_ids.size(), sel.headrooms.size());
  EXPECT_EQ(sel.job_type, JobType::kLong);
  for (double h : sel.headrooms) {
    EXPECT_GT(h, 0.0);
    EXPECT_LE(h, 1.0);
  }
}

// SelectsNothing against Select itself, on random classes: available cores
// at or below 0, classes of 0 cores, forecasts of -1 and ranking weights
// with zero entries, at every ask from 1 to past the classes' total room.
// Wherever Select comes back empty it must also have drawn nothing.
TEST(ClassSelectorTest, SelectsNothingExactlyWhenSelectIsEmpty) {
  Rng gen(27);
  int empty = 0;
  int picked = 0;
  for (int trial = 0; trial < 500; ++trial) {
    ClusteringSnapshot snapshot;
    std::vector<ClassState> states;
    const int64_t num_classes = gen.UniformInt(1, 6);
    for (int c = 0; c < num_classes; ++c) {
      UtilizationClass cls;
      cls.id = c;
      cls.pattern = static_cast<UtilizationPattern>(gen.UniformInt(0, kNumPatterns - 1));
      cls.average_utilization = gen.NextDouble();
      cls.peak_utilization = std::max(cls.average_utilization, gen.NextDouble());
      cls.total_cores = gen.Bernoulli(0.15) ? 0 : static_cast<int>(gen.UniformInt(1, 120));
      snapshot.classes.push_back(cls);
      ClassState state;
      state.class_id = c;
      state.current_utilization = gen.NextDouble();
      state.available_cores = static_cast<int>(gen.UniformInt(-20, cls.total_cores));
      state.forecast_utilization = gen.Bernoulli(0.3) ? -1.0 : gen.NextDouble();
      state.long_forecast_utilization = gen.Bernoulli(0.3) ? -1.0 : gen.NextDouble();
      states.push_back(state);
    }
    RankingWeights weights = RankingWeights::Default();
    for (auto& row : weights.weight) {
      for (double& w : row) {
        w = gen.Bernoulli(0.3) ? 0.0 : w;
      }
    }
    const ClassSelector selector(&snapshot, weights);
    for (JobType type : {JobType::kShort, JobType::kMedium, JobType::kLong}) {
      std::vector<int> available;
      std::vector<int> headroom_cores;
      int total_room = 0;
      for (size_t c = 0; c < states.size(); ++c) {
        const UtilizationClass& cls = snapshot.classes[c];
        available.push_back(states[c].available_cores);
        headroom_cores.push_back(
            ClassSelector::HeadroomCores(selector.Headroom(type, cls, states[c]), cls));
        total_room += std::max(0, ClassSelector::CoreRoom(available[c], headroom_cores[c]));
      }
      Rng rng(static_cast<uint64_t>(trial) * 3 + static_cast<uint64_t>(type));
      for (int ask = 1; ask <= total_room + 2; ++ask) {
        Rng untouched = rng;
        const bool nothing = selector.SelectsNothing(type, ask, available, headroom_cores);
        const ClassSelection selection = selector.Select(type, ask, states, rng);
        ASSERT_EQ(nothing, selection.empty())
            << "trial " << trial << ", type " << static_cast<int>(type) << ", ask " << ask;
        if (selection.empty()) {
          ASSERT_EQ(rng.Next(), untouched.Next()) << "an empty Select drew, trial " << trial;
          ++empty;
        } else {
          ++picked;
        }
      }
    }
  }
  // Both outcomes occur often.
  EXPECT_GT(empty, 1000);
  EXPECT_GT(picked, 1000);
}

TEST(ClassSelectorTest, NegativeRankingWeightIsRejected) {
  ClusteringSnapshot snapshot = MakeSnapshot(0.3, 0.6, 0.3, 0.4, 0.3, 0.7);
  RankingWeights weights = RankingWeights::Default();
  weights.weight[0][1] = -1.0;
  EXPECT_DEATH(ClassSelector(&snapshot, weights), "non-negative");
}

TEST(RankingWeightsTest, DefaultMatchesPaperRanking) {
  RankingWeights w = RankingWeights::Default();
  auto weight = [&w](JobType t, UtilizationPattern p) {
    return w.weight[static_cast<int>(t)][static_cast<int>(p)];
  };
  // Long: constant > periodic > unpredictable.
  EXPECT_GT(weight(JobType::kLong, UtilizationPattern::kConstant),
            weight(JobType::kLong, UtilizationPattern::kPeriodic));
  EXPECT_GT(weight(JobType::kLong, UtilizationPattern::kPeriodic),
            weight(JobType::kLong, UtilizationPattern::kUnpredictable));
  // Short: unpredictable > periodic > constant.
  EXPECT_GT(weight(JobType::kShort, UtilizationPattern::kUnpredictable),
            weight(JobType::kShort, UtilizationPattern::kPeriodic));
  EXPECT_GT(weight(JobType::kShort, UtilizationPattern::kPeriodic),
            weight(JobType::kShort, UtilizationPattern::kConstant));
  // Medium: periodic > constant > unpredictable.
  EXPECT_GT(weight(JobType::kMedium, UtilizationPattern::kPeriodic),
            weight(JobType::kMedium, UtilizationPattern::kConstant));
  EXPECT_GT(weight(JobType::kMedium, UtilizationPattern::kConstant),
            weight(JobType::kMedium, UtilizationPattern::kUnpredictable));
}

}  // namespace
}  // namespace harvest
