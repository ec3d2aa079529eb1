#include "src/core/utilization_clustering.h"

#include <algorithm>
#include <cstddef>

#include "src/signal/spectrum.h"
#include "src/util/stats.h"

namespace harvest {

std::vector<int> ClusteringSnapshot::TenantCountPerPattern() const {
  std::vector<int> counts(kNumPatterns, 0);
  for (UtilizationPattern pattern : tenant_pattern) {
    ++counts[static_cast<size_t>(pattern)];
  }
  return counts;
}

std::vector<int> ClusteringSnapshot::ServerCountPerPattern(const Cluster& cluster) const {
  std::vector<int> counts(kNumPatterns, 0);
  for (const auto& tenant : cluster.tenants()) {
    UtilizationPattern pattern = tenant_pattern[static_cast<size_t>(tenant.id)];
    counts[static_cast<size_t>(pattern)] += static_cast<int>(tenant.servers.size());
  }
  return counts;
}

ClusteringSnapshot UtilizationClusteringService::Run(const Cluster& cluster, Rng& rng) const {
  size_t slots = 0;
  for (const auto& tenant : cluster.tenants()) {
    slots = std::max(slots, tenant.average_utilization.size());
  }
  ClusteringSnapshot snapshot;
  const size_t num_tenants = cluster.num_tenants();
  snapshot.tenant_class.assign(num_tenants, -1);
  snapshot.tenant_pattern.assign(num_tenants, UtilizationPattern::kConstant);
  if (num_tenants == 0) {
    return snapshot;
  }

  // Step 1: FFT + pattern classification per tenant.
  PatternClassifier classifier(options_.classifier);
  std::vector<FrequencyProfile> profiles(num_tenants);
  std::vector<std::vector<TenantId>> by_pattern(kNumPatterns);
  for (const auto& tenant : cluster.tenants()) {
    std::vector<double> window;
    window.reserve(slots);
    for (size_t i = 0; i < slots; ++i) {
      window.push_back(tenant.average_utilization.AtSlot(i));
    }
    FrequencyProfile profile = ComputeFrequencyProfile(window);
    UtilizationPattern pattern = classifier.Classify(profile);
    profiles[static_cast<size_t>(tenant.id)] = std::move(profile);
    snapshot.tenant_pattern[static_cast<size_t>(tenant.id)] = pattern;
    by_pattern[static_cast<size_t>(pattern)].push_back(tenant.id);
  }

  // Step 2: K-Means within each pattern on the frequency-profile features.
  for (int p = 0; p < kNumPatterns; ++p) {
    const auto& members = by_pattern[static_cast<size_t>(p)];
    if (members.empty()) {
      continue;
    }
    std::vector<std::vector<double>> points;
    points.reserve(members.size());
    for (TenantId t : members) {
      points.push_back(profiles[static_cast<size_t>(t)].AsFeatureVector());
    }
    KMeansResult kmeans =
        KMeansAuto(points, options_.max_classes_per_pattern, rng, options_.elbow_min_gain);

    const int base = static_cast<int>(snapshot.classes.size());
    const int num_new = static_cast<int>(kmeans.centroids.size());
    for (int c = 0; c < num_new; ++c) {
      UtilizationClass cls;
      cls.id = base + c;
      cls.pattern = static_cast<UtilizationPattern>(p);
      cls.label = std::string(PatternName(cls.pattern)) + "-" + std::to_string(c);
      snapshot.classes.push_back(std::move(cls));
    }
    for (size_t i = 0; i < members.size(); ++i) {
      int cls_index = base + kmeans.assignment[i];
      snapshot.tenant_class[static_cast<size_t>(members[i])] = cls_index;
      snapshot.classes[static_cast<size_t>(cls_index)].tenants.push_back(members[i]);
    }
  }

  // Step 3: tag classes with average/peak utilization and capacity. The
  // peak is the *sustained* peak (99th percentile) of the class's aggregate
  // series (per-slot mean across member tenants), matching how
  // average_utilization averages across members: a job spread over the
  // class's servers experiences the class aggregate, and tenants' spikes
  // rarely align. The previous max-of-maxes let a single member tenant
  // touching 1.0 in one 2-minute slot zero out the whole class's long-job
  // headroom for the entire horizon, walling long jobs off from large fleet
  // fractions (small-scale fleets cluster into single-tenant classes, so one
  // transient poisoned a quarter of the datacenter) and queueing YARN-H
  // behind the PT baseline -- the fleet_sweep 45%-target regression. A
  // sub-half-hour transient is a reserve-kill risk the scheduler already
  // absorbs, not grounds for categorical exclusion.
  std::vector<double> aggregate;
  for (auto& cls : snapshot.classes) {
    SummaryStats averages;
    for (TenantId t : cls.tenants) {
      const auto& tenant = cluster.tenant(t);
      averages.Add(tenant.average_utilization.WindowAverage(0, slots));
      for (ServerId s : tenant.servers) {
        cls.servers.push_back(s);
        cls.total_cores += cluster.server(s).capacity.cores;
      }
    }
    double peak = 0.0;
    if (!cls.tenants.empty() && slots > 0) {
      aggregate.clear();
      aggregate.reserve(slots);
      for (size_t i = 0; i < slots; ++i) {
        double slot_sum = 0.0;
        for (TenantId t : cls.tenants) {
          slot_sum += cluster.tenant(t).average_utilization.AtSlot(i);
        }
        aggregate.push_back(slot_sum / static_cast<double>(cls.tenants.size()));
      }
      const size_t rank = (aggregate.size() - 1) -
                          (aggregate.size() - 1) / 100;  // index of the p99 order statistic
      std::nth_element(aggregate.begin(),
                       aggregate.begin() + static_cast<ptrdiff_t>(rank), aggregate.end());
      peak = aggregate[rank];
    }
    cls.average_utilization = averages.mean();
    cls.peak_utilization = peak;
  }
  return snapshot;
}

}  // namespace harvest
