#include "src/cluster/cluster.h"

#include <cmath>

#include "src/util/logging.h"

namespace harvest {

int Server::PrimaryCoresAt(double seconds) const {
  double used = PrimaryUtilizationAt(seconds) * capacity.cores;
  int rounded = static_cast<int>(std::ceil(used - 1e-9));
  return std::min(capacity.cores, std::max(0, rounded));
}

TenantId Cluster::AddTenant(PrimaryTenant tenant) {
  tenant.id = static_cast<TenantId>(tenants_.size());
  tenants_.push_back(std::move(tenant));
  return tenants_.back().id;
}

ServerId Cluster::AddServer(Server server) {
  server.id = static_cast<ServerId>(servers_.size());
  HARVEST_CHECK(server.tenant >= 0 &&
                static_cast<size_t>(server.tenant) < tenants_.size())
      << "server must belong to an existing tenant";
  tenants_[static_cast<size_t>(server.tenant)].servers.push_back(server.id);
  servers_.push_back(std::move(server));
  reimage_spans_.emplace_back();  // empty schedule until SetReimageTimes
  return servers_.back().id;
}

void Cluster::SetReimageTimes(ServerId id, const double* times, size_t count) {
  ReimageSpan& span = reimage_spans_[static_cast<size_t>(id)];
  span.offset = reimage_pool_.size();
  span.count = count;
  reimage_pool_.insert(reimage_pool_.end(), times, times + count);
}

void Cluster::SetTenantReimageEvents(TenantId id, const std::vector<ReimageEvent>& events) {
  const std::vector<ServerId>& servers = tenants_[static_cast<size_t>(id)].servers;
  // Counting sort by server index, stable in event order, into one flat
  // buffer that holds each server's times contiguously.
  std::vector<size_t> offset(servers.size() + 1, 0);
  for (const ReimageEvent& event : events) {
    HARVEST_CHECK(event.server_index >= 0 &&
                  static_cast<size_t>(event.server_index) < servers.size())
        << "reimage event for server " << event.server_index << " of a tenant with "
        << servers.size();
    ++offset[static_cast<size_t>(event.server_index) + 1];
  }
  for (size_t i = 1; i < offset.size(); ++i) {
    offset[i] += offset[i - 1];
  }
  std::vector<double> times(events.size());
  std::vector<size_t> cursor(offset.begin(), offset.end() - 1);
  for (const ReimageEvent& event : events) {
    times[cursor[static_cast<size_t>(event.server_index)]++] = event.time_seconds;
  }
  for (size_t s = 0; s < servers.size(); ++s) {
    SetReimageTimes(servers[s], times.data() + offset[s], offset[s + 1] - offset[s]);
  }
}

double Cluster::AverageUtilizationAt(double seconds) const {
  if (servers_.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const auto& server : servers_) {
    sum += server.PrimaryUtilizationAt(seconds);
  }
  return sum / static_cast<double>(servers_.size());
}

double Cluster::AverageUtilization() const {
  if (servers_.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const auto& server : servers_) {
    if (server.utilization) {
      sum += server.utilization->Average();
    }
  }
  return sum / static_cast<double>(servers_.size());
}

int64_t Cluster::TotalHarvestableBlocks() const {
  int64_t total = 0;
  for (const auto& server : servers_) {
    total += server.harvestable_blocks;
  }
  return total;
}

}  // namespace harvest
