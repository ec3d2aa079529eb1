#include "src/experiments/characterization.h"

#include <algorithm>

namespace harvest {

DatacenterCharacterization CharacterizeDatacenter(const DatacenterProfile& profile,
                                                  const CharacterizationOptions& options) {
  DatacenterCharacterization result;
  result.name = profile.name;

  Rng rng(options.seed ^ StableHash(profile.name));
  BuildOptions build;
  build.scale = options.cluster_scale;
  build.reimage_months = options.months;
  build.per_server_traces = false;  // classification uses the average server
  Cluster cluster = BuildCluster(profile, build, rng);
  result.num_tenants = static_cast<int>(cluster.num_tenants());
  result.num_servers = static_cast<int>(cluster.num_servers());

  // Pattern classification (Figs 2-3) through the clustering service.
  UtilizationClusteringService service;
  ClusteringSnapshot snapshot = service.Run(cluster, rng);
  std::vector<int> tenant_counts = snapshot.TenantCountPerPattern();
  std::vector<int> server_counts = snapshot.ServerCountPerPattern(cluster);
  for (int p = 0; p < kNumPatterns; ++p) {
    result.tenant_fraction[static_cast<size_t>(p)] =
        static_cast<double>(tenant_counts[static_cast<size_t>(p)]) /
        std::max(1, result.num_tenants);
    result.server_fraction[static_cast<size_t>(p)] =
        static_cast<double>(server_counts[static_cast<size_t>(p)]) /
        std::max(1, result.num_servers);
  }

  // Reimage statistics (Figs 4-6). The cluster builder materialized the
  // event times; realized monthly rates come straight from them.
  const double horizon = static_cast<double>(options.months) * kSecondsPerMonth;
  std::vector<std::vector<double>> monthly_rates(cluster.num_tenants());
  for (const auto& tenant : cluster.tenants()) {
    std::vector<int> per_month(static_cast<size_t>(options.months), 0);
    int64_t total = 0;
    for (ServerId s : tenant.servers) {
      const auto times = cluster.ReimageTimes(s);
      double server_total = 0.0;
      for (double t : times) {
        if (t < horizon) {
          ++per_month[static_cast<size_t>(t / kSecondsPerMonth)];
          ++total;
          ++server_total;
        }
      }
      result.server_reimage_rates.push_back(server_total / options.months);
    }
    double denom = static_cast<double>(tenant.servers.size()) * options.months;
    result.tenant_reimage_rates.push_back(denom > 0 ? static_cast<double>(total) / denom : 0.0);
    auto& rates = monthly_rates[static_cast<size_t>(tenant.id)];
    rates.resize(static_cast<size_t>(options.months));
    for (int m = 0; m < options.months; ++m) {
      rates[static_cast<size_t>(m)] = tenant.servers.empty()
                                          ? 0.0
                                          : static_cast<double>(per_month[static_cast<size_t>(m)]) /
                                                static_cast<double>(tenant.servers.size());
    }
  }
  // Group membership is computed on a 4-month trailing average: the paper's
  // production tenants run hundreds of servers, so their realized monthly
  // rates carry negligible sampling noise; our scaled-down tenants (a few to
  // tens of servers) need the smoothing to expose the same underlying rank
  // stability rather than Poisson counting noise (DESIGN.md).
  constexpr size_t kSmoothingMonths = 4;
  std::vector<std::vector<double>> smoothed(monthly_rates.size());
  for (size_t t = 0; t < monthly_rates.size(); ++t) {
    smoothed[t].resize(monthly_rates[t].size());
    for (size_t m = 0; m < monthly_rates[t].size(); ++m) {
      double sum = 0.0;
      int count = 0;
      for (size_t w = 0; w < kSmoothingMonths && m >= w; ++w) {
        sum += monthly_rates[t][m - w];
        ++count;
      }
      smoothed[t][m] = sum / count;
    }
  }
  result.group_changes = CountGroupChanges(smoothed);
  result.group_change_transitions = options.months - 1;
  return result;
}

}  // namespace harvest
