#include "src/experiments/cluster_scaling.h"

#include <memory>
#include <unordered_map>
#include <vector>

namespace harvest {

Cluster ScaleClusterUtilization(const Cluster& cluster, ScalingMethod method,
                                double target_average) {
  // Solve on the fleet's own traces, one pointer per server in ServerId
  // order: the fleet average weights each server equally, so a trace shared
  // by several servers is listed once for each of them.
  std::vector<const UtilizationTrace*> traces;
  traces.reserve(cluster.num_servers());
  for (const auto& server : cluster.servers()) {
    if (server.utilization) {
      traces.push_back(server.utilization.get());
    }
  }
  double parameter = SolveScalingParameter(traces, method, target_average);

  Cluster scaled = cluster;
  // Scale tenant average traces.
  for (size_t t = 0; t < scaled.num_tenants(); ++t) {
    PrimaryTenant& tenant = scaled.tenant(static_cast<TenantId>(t));
    tenant.average_utilization = ScaleTrace(tenant.average_utilization, method, parameter);
  }
  // Scale server traces, re-sharing identical source traces. Lookup-only
  // (never iterated), so the address key cannot leak into results.
  std::unordered_map<const UtilizationTrace*, std::shared_ptr<const UtilizationTrace>> memo;
  for (size_t s = 0; s < scaled.num_servers(); ++s) {
    Server& server = scaled.server(static_cast<ServerId>(s));
    if (!server.utilization) {
      continue;
    }
    auto it = memo.find(server.utilization.get());
    if (it == memo.end()) {
      auto scaled_trace = std::make_shared<const UtilizationTrace>(
          ScaleTrace(*server.utilization, method, parameter));
      it = memo.emplace(server.utilization.get(), std::move(scaled_trace)).first;
    }
    server.utilization = it->second;
  }
  return scaled;
}

}  // namespace harvest
