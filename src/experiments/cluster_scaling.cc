#include "src/experiments/cluster_scaling.h"

#include <unordered_map>
#include <memory>

namespace harvest {

Cluster ScaleClusterUtilization(const Cluster& cluster, ScalingMethod method,
                                double target_average) {
  // Solve the scaling parameter on one copy of the trace per server: the
  // fleet average weights each server equally, so a trace shared by several
  // servers is copied once for each of them.
  std::vector<UtilizationTrace> flat;
  flat.reserve(cluster.num_servers());
  for (const auto& server : cluster.servers()) {
    if (server.utilization) {
      flat.push_back(*server.utilization);
    }
  }
  double parameter = SolveScalingParameter(flat, method, target_average);

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
