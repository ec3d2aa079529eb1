#include "src/experiments/characterization.h"

#include <gtest/gtest.h>

namespace harvest {
namespace {

CharacterizationOptions FastOptions() {
  CharacterizationOptions options;
  options.months = 12;        // a year is enough for the distribution checks
  options.cluster_scale = 0.3;
  options.seed = 7;
  return options;
}

TEST(CharacterizationTest, FractionsSumToOne) {
  DatacenterCharacterization dc =
      CharacterizeDatacenter(DatacenterByName("DC-9"), FastOptions());
  double tenant_sum = 0.0;
  double server_sum = 0.0;
  for (int p = 0; p < kNumPatterns; ++p) {
    tenant_sum += dc.tenant_fraction[static_cast<size_t>(p)];
    server_sum += dc.server_fraction[static_cast<size_t>(p)];
  }
  EXPECT_NEAR(tenant_sum, 1.0, 1e-9);
  EXPECT_NEAR(server_sum, 1.0, 1e-9);
}

TEST(CharacterizationTest, ConstantTenantsDominateFig2) {
  // Fig 2: the vast majority of primary tenants exhibit roughly constant
  // utilization, and periodic tenants are a small minority.
  DatacenterCharacterization dc =
      CharacterizeDatacenter(DatacenterByName("DC-5"), FastOptions());
  double periodic = dc.tenant_fraction[static_cast<size_t>(UtilizationPattern::kPeriodic)];
  double constant = dc.tenant_fraction[static_cast<size_t>(UtilizationPattern::kConstant)];
  EXPECT_LT(periodic, 0.3);
  EXPECT_GT(constant, 0.4);
  EXPECT_GT(constant, periodic);
}

TEST(CharacterizationTest, PeriodicServersAreLargeShareFig3) {
  // Fig 3: periodic tenants cover a much larger share of servers than of
  // tenants (they are user-facing fleets), and periodic+constant cover the
  // majority of servers (~75% on average in the paper).
  DatacenterCharacterization dc =
      CharacterizeDatacenter(DatacenterByName("DC-9"), FastOptions());
  double periodic_servers = dc.server_fraction[static_cast<size_t>(UtilizationPattern::kPeriodic)];
  double periodic_tenants = dc.tenant_fraction[static_cast<size_t>(UtilizationPattern::kPeriodic)];
  EXPECT_GT(periodic_servers, periodic_tenants * 1.5);
  double predictable =
      periodic_servers + dc.server_fraction[static_cast<size_t>(UtilizationPattern::kConstant)];
  EXPECT_GT(predictable, 0.55);
}

TEST(CharacterizationTest, ServerReimageCdfAnchorFig4) {
  // Fig 4: at least ~90% of servers average <= 1 reimage/month.
  DatacenterCharacterization dc =
      CharacterizeDatacenter(DatacenterByName("DC-0"), FastOptions());
  Cdf cdf(dc.server_reimage_rates);
  EXPECT_GT(cdf.At(1.0), 0.85);
  EXPECT_LT(cdf.At(0.0), 1.0);  // some servers do get reimaged
}

TEST(CharacterizationTest, TenantReimageCdfAnchorFig5) {
  // Fig 5: at least ~80% of tenants average <= 1 reimage/server/month, with
  // real diversity across tenants (no vertical line).
  DatacenterCharacterization dc =
      CharacterizeDatacenter(DatacenterByName("DC-7"), FastOptions());
  Cdf cdf(dc.tenant_reimage_rates);
  EXPECT_GT(cdf.At(1.0), 0.75);
  EXPECT_GT(cdf.Quantile(0.95) - cdf.Quantile(0.05), 0.05);
}

TEST(CharacterizationTest, GroupChangesAreRareFig6) {
  // Fig 6 anchor: >= 80% of tenants change reimage-frequency groups at most
  // 8 times out of 35 monthly transitions. Scaled to the 11 transitions of a
  // 12-month window: <= ceil(8 * 11/35) = 3 changes. DC-7 has the highest
  // reimage rates, i.e. the least sampling noise at test scale.
  CharacterizationOptions options = FastOptions();
  options.cluster_scale = 0.5;
  DatacenterCharacterization dc = CharacterizeDatacenter(DatacenterByName("DC-7"), options);
  ASSERT_EQ(dc.group_change_transitions, options.months - 1);
  int stable = 0;
  for (int changes : dc.group_changes) {
    EXPECT_GE(changes, 0);
    EXPECT_LE(changes, dc.group_change_transitions);
    if (changes <= 3) {
      ++stable;
    }
  }
  EXPECT_GT(stable, static_cast<int>(dc.group_changes.size()) * 70 / 100);
}

TEST(CharacterizationTest, LowReimageDatacentersAreLower) {
  // DC-1, DC-3, DC-8 carry the "substantially lower" per-server rates.
  CharacterizationOptions options = FastOptions();
  DatacenterCharacterization low = CharacterizeDatacenter(DatacenterByName("DC-1"), options);
  DatacenterCharacterization high = CharacterizeDatacenter(DatacenterByName("DC-7"), options);
  auto mean = [](const std::vector<double>& rates) {
    SummaryStats stats;
    for (double r : rates) {
      stats.Add(r);
    }
    return stats.mean();
  };
  EXPECT_LT(mean(low.server_reimage_rates), mean(high.server_reimage_rates));
}

TEST(CharacterizationTest, AllTenDatacentersCharacterize) {
  CharacterizationOptions options = FastOptions();
  options.months = 3;          // keep the full sweep fast
  options.cluster_scale = 0.15;
  ASSERT_EQ(AllDatacenterProfiles().size(), static_cast<size_t>(kNumDatacenters));
  for (const DatacenterProfile& profile : AllDatacenterProfiles()) {
    const DatacenterCharacterization dc = CharacterizeDatacenter(profile, options);
    EXPECT_GT(dc.num_tenants, 0);
    EXPECT_GT(dc.num_servers, dc.num_tenants);
    EXPECT_EQ(dc.server_reimage_rates.size(), static_cast<size_t>(dc.num_servers));
    EXPECT_EQ(dc.tenant_reimage_rates.size(), static_cast<size_t>(dc.num_tenants));
    EXPECT_EQ(dc.group_changes.size(), static_cast<size_t>(dc.num_tenants));
  }
}

}  // namespace
}  // namespace harvest
