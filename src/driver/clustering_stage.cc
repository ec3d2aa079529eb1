// ClusteringStage: one daily run of the utilization-clustering service
// (FFT -> pattern split -> K-Means) plus classifier accuracy against the
// generators' ground truth, and paper §3's characterization of the same
// fleet: tenants and servers per pattern (Figs 2-3) and the reimage
// statistics of Figs 4-6.

#include <algorithm>

#include "src/core/utilization_clustering.h"
#include "src/driver/stage.h"
#include "src/signal/pattern.h"
#include "src/trace/reimage.h"

namespace harvest {
namespace {

// Figs 4-6 over each server's reimage events in [0, months).
ClusteringReimageResult CountReimages(const Cluster& cluster, int months) {
  // Group membership is computed on a 4-month trailing average: the paper's
  // production tenants run hundreds of servers, so their realized monthly
  // rates carry negligible sampling noise; our scaled-down tenants (a few to
  // tens of servers) need the smoothing to expose the same underlying rank
  // stability rather than Poisson counting noise (DESIGN.md).
  constexpr size_t kSmoothingMonths = 4;
  ClusteringReimageResult result;
  result.months = months;
  const double horizon = static_cast<double>(months) * kSecondsPerMonth;
  std::vector<std::vector<double>> smoothed(cluster.num_tenants());
  for (const PrimaryTenant& tenant : cluster.tenants()) {
    std::vector<int64_t> per_month(static_cast<size_t>(months), 0);
    int64_t tenant_total = 0;
    for (ServerId s : tenant.servers) {
      int64_t server_total = 0;
      for (double t : cluster.ReimageTimes(s)) {
        if (t < horizon) {
          ++per_month[static_cast<size_t>(
              std::min(months - 1, static_cast<int>(t / kSecondsPerMonth)))];
          ++server_total;
        }
      }
      result.servers_at_most_one_per_month += server_total <= months ? 1 : 0;
      tenant_total += server_total;
    }
    const auto servers = static_cast<int64_t>(tenant.servers.size());
    result.tenants_at_most_one_per_server_month += tenant_total <= servers * months ? 1 : 0;
    std::vector<double>& rates = smoothed[static_cast<size_t>(tenant.id)];
    rates.assign(per_month.size(), 0.0);
    for (size_t m = 0; m < rates.size() && servers > 0; ++m) {
      const size_t window = std::min(kSmoothingMonths, m + 1);
      for (size_t w = 0; w < window; ++w) {
        rates[m] += static_cast<double>(per_month[m - w]) / static_cast<double>(servers);
      }
      rates[m] /= static_cast<double>(window);
    }
  }
  result.tenants_by_tertile_changes.assign(static_cast<size_t>(months), 0);
  for (int changes : CountGroupChanges(smoothed)) {
    ++result.tenants_by_tertile_changes[static_cast<size_t>(changes)];
  }
  return result;
}

}  // namespace

ClusteringStageResult RunClusteringStage(const DcContext& ctx, const Cluster& cluster) {
  Rng rng(ctx.StreamSeed("clustering"));
  UtilizationClusteringService service(ctx.config->clustering);
  ClusteringSnapshot snapshot = service.Run(cluster, rng);

  ClusteringStageResult result;
  result.classes.reserve(snapshot.classes.size());
  for (const UtilizationClass& cls : snapshot.classes) {
    ClusteringClassResult entry;
    entry.label = cls.label;
    entry.pattern = PatternName(cls.pattern);
    entry.average_utilization = cls.average_utilization;
    entry.peak_utilization = cls.peak_utilization;
    entry.tenants = cls.tenants.size();
    entry.servers = cls.servers.size();
    entry.total_cores = cls.total_cores;
    result.classes.push_back(std::move(entry));
  }

  std::vector<int> tenants = snapshot.TenantCountPerPattern();
  std::vector<int> servers = snapshot.ServerCountPerPattern(cluster);
  for (size_t p = 0; p < result.tenants_per_pattern.size(); ++p) {
    result.tenants_per_pattern[p] = tenants[p];
    result.servers_per_pattern[p] = servers[p];
  }

  int correct = 0;
  for (size_t t = 0; t < cluster.num_tenants(); ++t) {
    if (snapshot.tenant_pattern[t] == cluster.tenant(static_cast<TenantId>(t)).true_pattern) {
      ++correct;
    }
  }
  result.classifier_accuracy =
      cluster.num_tenants() == 0
          ? 1.0
          : static_cast<double>(correct) / static_cast<double>(cluster.num_tenants());
  result.reimages = CountReimages(cluster, ctx.config->reimage_months);
  return result;
}

}  // namespace harvest
