#include "src/scheduler/node_manager.h"

#include <algorithm>

namespace harvest {

NodeManager::NodeManager(const Server* server, Resources reserve, SchedulerMode mode)
    : server_(server), reserve_(reserve), mode_(mode) {}

int NodeManager::ForecastPrimaryCores(double t, double window_seconds) const {
  if (!server_->utilization || server_->utilization->empty()) {
    return 0;
  }
  // Sample the previous day's window at slot granularity (plus one slot of
  // margin on each side for alignment). Integer slot arithmetic: the RM's
  // incremental sliding-window maximum walks the same slots, so the two
  // paths are exactly equivalent (the oracle test asserts it).
  const int64_t start_slot = ForecastStartSlot(t);
  const int samples = ForecastSampleCount(window_seconds);
  double peak = 0.0;
  for (int i = 0; i < samples; ++i) {
    peak = std::max(peak, ForecastSampleAt(*server_->utilization, start_slot + i));
  }
  return ForecastCoresFromPeak(peak, server_->capacity.cores);
}

Resources NodeManager::AvailableForTask(double t, double window_seconds) const {
  if (mode_ == SchedulerMode::kStock) {
    return AvailableForSecondary(t);
  }
  return AvailableForTaskGiven(PrimaryCores(t), ForecastPrimaryCores(t, window_seconds));
}

Resources NodeManager::AvailableForTaskGiven(int primary_cores, int forecast_cores) const {
  if (mode_ == SchedulerMode::kStock) {
    return AvailableForSecondaryGiven(primary_cores);
  }
  int discount_cores = std::max(primary_cores, forecast_cores);
  int discount_memory =
      discount_cores * (server_->capacity.memory_mb / server_->capacity.cores);
  Resources available = server_->capacity;
  available -= Resources{discount_cores, discount_memory};
  available -= reserve_;
  available -= allocated_;
  return Resources{std::max(0, available.cores), std::max(0, available.memory_mb)};
}

Resources NodeManager::AvailableForSecondary(double t) const {
  return AvailableForSecondaryGiven(mode_ == SchedulerMode::kStock ? 0 : PrimaryCores(t));
}

Resources NodeManager::AvailableForSecondaryGiven(int primary_cores) const {
  Resources available = server_->capacity;
  if (mode_ != SchedulerMode::kStock) {
    // Memory footprint of the primary is modeled as proportional to its core
    // usage; the reserve covers the remaining headroom it may burst into.
    int primary_memory =
        primary_cores * (server_->capacity.memory_mb / server_->capacity.cores);
    available -= Resources{primary_cores, primary_memory};
    available -= reserve_;
  }
  available -= allocated_;
  return Resources{std::max(0, available.cores), std::max(0, available.memory_mb)};
}

void NodeManager::AddContainer(const Container& container) {
  allocated_ += container.resources;
  containers_.push_back(container);
}

bool NodeManager::RemoveContainer(ContainerId id) {
  for (auto it = containers_.begin(); it != containers_.end(); ++it) {
    if (it->id == id) {
      allocated_ -= it->resources;
      containers_.erase(it);
      return true;
    }
  }
  return false;
}

std::vector<Container> NodeManager::EnforceReserve(double t) {
  std::vector<Container> killed;
  if (mode_ == SchedulerMode::kStock) {
    return killed;
  }
  int primary_cores = PrimaryCores(t);
  int primary_memory = primary_cores * (server_->capacity.memory_mb / server_->capacity.cores);
  // Kill youngest-first until the reserve is whole again (paper §5.3).
  while (!containers_.empty()) {
    Resources needed = Resources{primary_cores, primary_memory} + reserve_ + allocated_;
    if (server_->capacity.Fits(needed)) {
      break;
    }
    killed.push_back(containers_.back());
    allocated_ -= containers_.back().resources;
    containers_.pop_back();
  }
  return killed;
}

std::vector<Container> NodeManager::RemoveAllContainers() {
  std::vector<Container> evicted = std::move(containers_);
  containers_.clear();
  allocated_ = Resources{0, 0};
  return evicted;
}

int NodeManager::OvercommitCores(double t) const {
  int primary_cores = PrimaryCores(t);
  return std::max(0, primary_cores + allocated_.cores - server_->capacity.cores);
}

double NodeManager::TotalUtilization(double t) const {
  double primary = server_->PrimaryUtilizationAt(t) * server_->capacity.cores;
  double total = primary + static_cast<double>(allocated_.cores);
  return std::min(1.0, total / server_->capacity.cores);
}

}  // namespace harvest
