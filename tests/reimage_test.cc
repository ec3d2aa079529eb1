#include "src/trace/reimage.h"

#include <algorithm>
#include <gtest/gtest.h>

namespace harvest {
namespace {

TEST(ReimageTest, BaseRatesAreMostlyBelowOnePerMonth) {
  // Paper §3.3: at least 80% of primary tenants are reimaged once or fewer
  // times per server per month on average.
  ReimageModelParams params;
  Rng rng(1);
  int below_one = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    TenantReimageProcess process(params, 10, rng);
    if (process.base_rate() <= 1.0) {
      ++below_one;
    }
  }
  EXPECT_GT(below_one, n * 80 / 100);
  EXPECT_LT(below_one, n);  // ...but a real tail exists
}

TEST(ReimageTest, RatesAreDiverseAcrossTenants) {
  // Fig 5 is not a vertical line: rates must spread over the axis.
  ReimageModelParams params;
  Rng rng(2);
  std::vector<double> rates;
  for (int i = 0; i < 500; ++i) {
    rates.push_back(TenantReimageProcess(params, 10, rng).base_rate());
  }
  std::sort(rates.begin(), rates.end());
  EXPECT_LT(rates[50], 0.1);        // a clear low end
  EXPECT_GT(rates[450], 0.5);       // and a clear high end
}

TEST(ReimageTest, EventsAreSortedAndWithinHorizon) {
  ReimageModelParams params;
  params.mass_event_monthly_prob = 0.5;  // force correlated events often
  Rng rng(3);
  TenantReimageProcess process(params, 20, rng);
  std::vector<ReimageEvent> events = process.GenerateEvents(6, rng);
  double horizon = 6.0 * kSecondsPerMonth + params.mass_window_seconds;
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_GE(events[i].time_seconds, 0.0);
    EXPECT_LE(events[i].time_seconds, horizon);
    EXPECT_GE(events[i].server_index, 0);
    EXPECT_LT(events[i].server_index, 20);
    if (i > 0) {
      EXPECT_LE(events[i - 1].time_seconds, events[i].time_seconds);
    }
  }
}

TEST(ReimageTest, MassEventsHitManyServersInAWindow) {
  ReimageModelParams params;
  params.rate_log_mean = -10.0;  // suppress independent reimages
  params.rate_log_stddev = 0.01;
  params.mass_event_monthly_prob = 1.0;
  params.mass_fraction = 0.8;
  Rng rng(4);
  TenantReimageProcess process(params, 50, rng);
  std::vector<ReimageEvent> events = process.GenerateEvents(1, rng);
  int mass = 0;
  for (const auto& event : events) {
    mass += event.from_mass_event ? 1 : 0;
  }
  EXPECT_GT(mass, 25);  // ~80% of 50 servers
  // All mass-event reimages land within the configured window.
  double lo = 1e18;
  double hi = -1.0;
  for (const auto& event : events) {
    if (event.from_mass_event) {
      lo = std::min(lo, event.time_seconds);
      hi = std::max(hi, event.time_seconds);
    }
  }
  EXPECT_LE(hi - lo, params.mass_window_seconds);
}

TEST(ReimageTest, RealizedRateTracksBaseRate) {
  ReimageModelParams params;
  params.mass_event_monthly_prob = 0.0;
  params.drift_stddev = 0.0;
  Rng rng(5);
  // Pick a tenant with a non-trivial rate for a tight relative check.
  TenantReimageProcess process(params, 200, rng);
  std::vector<ReimageEvent> events = process.GenerateEvents(24, rng);
  // Reimages per server per month.
  double realized = static_cast<double>(events.size()) / (200.0 * 24.0);
  EXPECT_NEAR(realized, process.base_rate(), process.base_rate() * 0.2 + 0.02);
}

TEST(ReimageTest, RateForMonthDriftsButStaysPositive) {
  ReimageModelParams params;
  Rng rng(6);
  TenantReimageProcess process(params, 10, rng);
  for (int m = 0; m < 36; ++m) {
    EXPECT_GT(process.RateForMonth(m), 0.0);
    EXPECT_LE(process.RateForMonth(m), params.max_rate);
  }
}

TEST(ReimageTest, SplitIntoGroupsIsBalanced) {
  std::vector<double> rates;
  for (int i = 0; i < 99; ++i) {
    rates.push_back(i * 0.01);
  }
  std::vector<ReimageGroup> groups = SplitIntoGroups(rates);
  int counts[3] = {0, 0, 0};
  for (ReimageGroup g : groups) {
    ++counts[static_cast<int>(g)];
  }
  EXPECT_EQ(counts[0], 33);
  EXPECT_EQ(counts[1], 33);
  EXPECT_EQ(counts[2], 33);
  // Order respected: the lowest-rate tenant is infrequent, highest frequent.
  EXPECT_EQ(groups[0], ReimageGroup::kInfrequent);
  EXPECT_EQ(groups[98], ReimageGroup::kFrequent);
}

TEST(ReimageTest, CountGroupChangesDetectsStability) {
  // Three tenants with fixed relative order: zero changes.
  std::vector<std::vector<double>> stable = {
      {0.1, 0.1, 0.1}, {0.5, 0.6, 0.4}, {1.5, 2.0, 1.2}};
  std::vector<int> changes = CountGroupChanges(stable);
  EXPECT_EQ(changes, (std::vector<int>{0, 0, 0}));

  // Swap the top two each month: they keep trading groups.
  std::vector<std::vector<double>> churn = {
      {0.1, 0.1, 0.1}, {0.5, 2.0, 0.5}, {1.5, 0.6, 1.5}};
  changes = CountGroupChanges(churn);
  EXPECT_EQ(changes[0], 0);
  EXPECT_EQ(changes[1], 2);
  EXPECT_EQ(changes[2], 2);
}

TEST(ReimageTest, RankStabilityOverThreeYears) {
  // Paper Fig 6: >= 80% of tenants change groups <= 8 times in 35 monthly
  // transitions. Verified on the model's realized monthly rates.
  ReimageModelParams params;
  Rng rng(7);
  const int tenants = 300;
  const int months = 36;
  std::vector<std::vector<double>> monthly(tenants);
  for (int t = 0; t < tenants; ++t) {
    TenantReimageProcess process(params, 10, rng);
    monthly[static_cast<size_t>(t)].resize(months);
    for (int m = 0; m < months; ++m) {
      monthly[static_cast<size_t>(t)][static_cast<size_t>(m)] = process.RateForMonth(m);
    }
  }
  std::vector<int> changes = CountGroupChanges(monthly);
  int stable = 0;
  for (int c : changes) {
    if (c <= 8) {
      ++stable;
    }
  }
  EXPECT_GT(stable, tenants * 80 / 100);
}

TEST(ReimageTest, CountGroupChangesEmptyInput) {
  EXPECT_TRUE(CountGroupChanges({}).empty());
}

}  // namespace
}  // namespace harvest
