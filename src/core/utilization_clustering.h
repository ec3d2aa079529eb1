// The clustering service of paper §4.1 and §5 (the "CS" box of Fig 9): once a
// day it takes the most recent average-server utilization series of every
// primary tenant, runs the FFT, splits tenants into the three behavior
// patterns, and K-Means-clusters the frequency profiles within each pattern.
// Each resulting *utilization class* is tagged with its pattern, average
// utilization, and peak utilization, and keeps the tenant <-> class mapping
// that RM-H node labels are derived from.

#ifndef HARVEST_SRC_CORE_UTILIZATION_CLUSTERING_H_
#define HARVEST_SRC_CORE_UTILIZATION_CLUSTERING_H_

#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/core/kmeans.h"
#include "src/signal/pattern.h"
#include "src/util/rng.h"

namespace harvest {

// One class of primary tenants with similar utilization behavior.
struct UtilizationClass {
  int id = 0;
  UtilizationPattern pattern = UtilizationPattern::kConstant;
  std::string label;  // RM-H node label, e.g. "periodic-2"
  // Mean of member tenants' window-average utilizations, and the sustained
  // (99th-percentile) peak of the class's aggregate per-slot series -- the
  // utilization a job spread across the class's servers actually rides.
  double average_utilization = 0.0;
  double peak_utilization = 0.0;
  std::vector<TenantId> tenants;
  // Total cores across member servers (the class's computational capacity).
  int total_cores = 0;
  std::vector<ServerId> servers;
};

struct ClusteringOptions {
  // Maximum K-Means clusters per pattern; the service picks k per pattern
  // with an elbow rule, so small datacenters get fewer classes.
  int max_classes_per_pattern = 8;
  double elbow_min_gain = 0.20;
  PatternClassifierOptions classifier;
};

// Output of one clustering run.
struct ClusteringSnapshot {
  std::vector<UtilizationClass> classes;
  // tenant_class[tenant_id] = index into `classes`.
  std::vector<int> tenant_class;
  // Pattern assigned to each tenant by the classifier.
  std::vector<UtilizationPattern> tenant_pattern;

  // Tenant/server counts per pattern (drives Figs 2-3).
  std::vector<int> TenantCountPerPattern() const;
  std::vector<int> ServerCountPerPattern(const Cluster& cluster) const;
};

// The clustering service. Stateless between runs except for options; the
// paper re-runs it daily off the critical path.
class UtilizationClusteringService {
 public:
  explicit UtilizationClusteringService(ClusteringOptions options = {}) : options_(options) {}

  // Clusters all tenants of `cluster` using their average-server traces over
  // the full horizon: the longest tenant trace's slots, shorter traces
  // wrapping.
  ClusteringSnapshot Run(const Cluster& cluster, Rng& rng) const;

 private:
  ClusteringOptions options_;
};

}  // namespace harvest

#endif  // HARVEST_SRC_CORE_UTILIZATION_CLUSTERING_H_
