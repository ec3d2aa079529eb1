// Characterization scenario: reproduce the paper's section-3 study for one
// datacenter -- classify every primary tenant's utilization pattern with the
// FFT pipeline, then summarize reimaging behavior and rank stability. This is
// what an operator would run before enabling harvesting on a new fleet.
//
// Build & run:  ./build/examples/datacenter_characterization [DC-name]

#include <algorithm>
#include <cstdio>
#include <string>

#include "src/experiments/characterization.h"

int main(int argc, char** argv) {
  using namespace harvest;
  const std::string dc_name = argc > 1 ? argv[1] : "DC-9";
  const auto& profiles = AllDatacenterProfiles();
  if (std::none_of(profiles.begin(), profiles.end(),
                   [&](const DatacenterProfile& profile) { return profile.name == dc_name; })) {
    std::fprintf(stderr, "unknown datacenter '%s'; valid names:", dc_name.c_str());
    for (const DatacenterProfile& profile : profiles) {
      std::fprintf(stderr, " %s", profile.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }

  CharacterizationOptions options;
  options.months = 24;
  options.cluster_scale = 0.5;
  options.seed = 13;
  DatacenterCharacterization dc =
      CharacterizeDatacenter(DatacenterByName(dc_name), options);

  std::printf("characterization of %s (%d tenants, %d servers, %d months of history)\n\n",
              dc.name.c_str(), dc.num_tenants, dc.num_servers, options.months);

  std::printf("utilization patterns (share of tenants / share of servers):\n");
  const char* names[] = {"periodic", "constant", "unpredictable"};
  for (int p = 0; p < kNumPatterns; ++p) {
    std::printf("  %-14s %5.1f%% of tenants   %5.1f%% of servers\n", names[p],
                100.0 * dc.tenant_fraction[static_cast<size_t>(p)],
                100.0 * dc.server_fraction[static_cast<size_t>(p)]);
  }
  double predictable = dc.server_fraction[0] + dc.server_fraction[1];
  std::printf("  => history is a good predictor for %.0f%% of servers (paper: ~75%%)\n\n",
              100.0 * predictable);

  Cdf server_cdf(dc.server_reimage_rates);
  Cdf tenant_cdf(dc.tenant_reimage_rates);
  std::printf("reimaging:\n");
  std::printf("  servers averaging <= 1 reimage/month:        %5.1f%%\n",
              100.0 * server_cdf.At(1.0));
  std::printf("  tenants averaging <= 1 reimage/server/month: %5.1f%%\n",
              100.0 * tenant_cdf.At(1.0));
  std::printf("  median tenant rate: %.2f/server/month; p95: %.2f\n\n",
              tenant_cdf.Quantile(0.5), tenant_cdf.Quantile(0.95));

  int stable = 0;
  int budget = dc.group_change_transitions * 8 / 35;  // the paper's 8-of-35, scaled
  for (int changes : dc.group_changes) {
    if (changes <= budget) {
      ++stable;
    }
  }
  std::printf("rank stability: %.1f%% of tenants changed reimage-frequency tertiles at most\n"
              "%d times across %d monthly transitions (paper anchor: >=80%% at 8 of 35).\n",
              100.0 * stable / std::max(1, dc.num_tenants), budget,
              dc.group_change_transitions);

  std::printf("\nverdict: %s\n",
              predictable > 0.6
                  ? "fleet is a good harvesting candidate (predictable majority)"
                  : "fleet is volatile; expect more task kills and denials");
  return 0;
}
