// In-memory model of one datacenter: primary tenants (environment + machine
// function pairs), their servers, racks, per-server utilization traces, and
// per-server reimage schedules. This is the substrate every experiment runs
// against; it replaces the paper's AutoPilot-managed production fleet.

#ifndef HARVEST_SRC_CLUSTER_CLUSTER_H_
#define HARVEST_SRC_CLUSTER_CLUSTER_H_

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/cluster/types.h"
#include "src/signal/pattern.h"
#include "src/trace/reimage.h"
#include "src/trace/utilization_trace.h"

namespace harvest {

// A server owned by one primary tenant. Primary tenants run on physical
// hardware without virtualization (paper §3.1).
//
// The utilization trace is shared: in testbed-scale clusters each server owns
// a perturbed copy, while datacenter-scale clusters share one trace per
// tenant to keep a month of 2-minute telemetry for thousands of servers
// affordable.
struct Server {
  ServerId id = kInvalidServer;
  TenantId tenant = kInvalidTenant;
  RackId rack = 0;
  Resources capacity = kDefaultServerCapacity;
  // CPU utilization of the primary tenant on this server, fraction of
  // capacity.cores. Never null after cluster construction.
  std::shared_ptr<const UtilizationTrace> utilization;
  // The reimage schedule (times at which this server's disk is reimaged,
  // destroying all harvested replicas stored on it) lives in the Cluster's
  // shared pool: Cluster::ReimageTimes(id) / Cluster::SetReimageTimes.
  // Storage the primary tenant allows HDFS-H to harvest, in blocks.
  int64_t harvestable_blocks = 0;

  // Primary CPU cores in use at `seconds`, rounded up to a whole core
  // (the NM-H rounding rule, paper §5.3).
  int PrimaryCoresAt(double seconds) const;
  double PrimaryUtilizationAt(double seconds) const {
    return utilization ? utilization->AtTime(seconds) : 0.0;
  }
};

// An <environment, machine function> pair (paper §3.1).
struct PrimaryTenant {
  TenantId id = kInvalidTenant;
  EnvironmentId environment = 0;
  std::string name;
  // Ground-truth pattern the generator used (the classifier must recover it).
  UtilizationPattern true_pattern = UtilizationPattern::kConstant;
  // The tenant's "average server" utilization series (paper §3.2).
  UtilizationTrace average_utilization;
  // Long-run reimage rate, reimages/server/month.
  double reimage_rate = 0.0;
  std::vector<ServerId> servers;
};

// One datacenter's fleet.
class Cluster {
 public:
  Cluster() = default;

  // Adds a tenant and returns its id. Servers are attached separately.
  TenantId AddTenant(PrimaryTenant tenant);
  // Adds a server and returns its id; registers it with its tenant.
  ServerId AddServer(Server server);

  const std::vector<Server>& servers() const { return servers_; }
  const std::vector<PrimaryTenant>& tenants() const { return tenants_; }
  Server& server(ServerId id) { return servers_[static_cast<size_t>(id)]; }
  const Server& server(ServerId id) const { return servers_[static_cast<size_t>(id)]; }
  PrimaryTenant& tenant(TenantId id) { return tenants_[static_cast<size_t>(id)]; }
  const PrimaryTenant& tenant(TenantId id) const { return tenants_[static_cast<size_t>(id)]; }
  size_t num_servers() const { return servers_.size(); }
  size_t num_tenants() const { return tenants_.size(); }

  // --- Reimage schedules (pooled) ----------------------------------------
  // Per-server schedules are short (a handful of events per server-month)
  // and number in the hundreds of thousands at fleet_scale=25, so holding
  // one heap vector per server triples the memory and allocation count for
  // no benefit. All times live in one pool, with a (offset, count) span per
  // server -- offsets, not pointers, so a copied or moved Cluster
  // (cluster_scaling, trace replay) stays self-contained.

  // The server's reimage times, ascending, in the order they were set.
  std::span<const double> ReimageTimes(ServerId id) const {
    const ReimageSpan& span = reimage_spans_[static_cast<size_t>(id)];
    return {reimage_pool_.data() + span.offset, span.count};
  }
  // Installs `count` times for one server, appending to the pool. Builders
  // call this at most once per server (re-setting leaks pool slots until
  // the Cluster is dropped; no builder re-sets).
  void SetReimageTimes(ServerId id, const double* times, size_t count);
  // Installs a tenant's generated schedule: each event lands on the tenant's
  // `server_index`-th server, in event order, and the tenant's servers take
  // their spans in that order. Call once per tenant, after adding all of
  // its servers.
  void SetTenantReimageEvents(TenantId id, const std::vector<ReimageEvent>& events);
  // Total events across the fleet (the driver's provenance stat).
  int64_t TotalReimageEvents() const {
    return static_cast<int64_t>(reimage_pool_.size());
  }

  // Fleet-wide average primary CPU utilization at `seconds`, in [0, 1].
  double AverageUtilizationAt(double seconds) const;
  // Fleet-wide average over the whole trace horizon.
  double AverageUtilization() const;
  // Total blocks of harvestable storage across the fleet.
  int64_t TotalHarvestableBlocks() const;

 private:
  struct ReimageSpan {
    size_t offset = 0;
    size_t count = 0;
  };

  std::vector<Server> servers_;
  std::vector<PrimaryTenant> tenants_;
  std::vector<double> reimage_pool_;
  std::vector<ReimageSpan> reimage_spans_;  // parallel to servers_
};

}  // namespace harvest

#endif  // HARVEST_SRC_CLUSTER_CLUSTER_H_
