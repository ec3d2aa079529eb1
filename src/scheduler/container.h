// Container abstractions of the YARN-like scheduler (paper §5.1): an
// Application Master requests containers with core/memory shapes and an
// optional node-label (utilization-class) restriction; the Resource Manager
// places each container on a server of the right class with room.

#ifndef HARVEST_SRC_SCHEDULER_CONTAINER_H_
#define HARVEST_SRC_SCHEDULER_CONTAINER_H_

#include <vector>

#include "src/cluster/types.h"
#include "src/core/job_history.h"

namespace harvest {

// Awareness level of the scheduler stack (paper §6.1 baselines).
enum class SchedulerMode {
  // Stock YARN: assumes dedicated servers; ignores primary tenants entirely.
  kStock = 0,
  // Primary-tenant-aware: subtracts primary usage and keeps the burst
  // reserve, killing containers when the primary spikes; no history.
  kPrimaryAware = 1,
  // YARN-H/Tez-H: primary-aware plus history-based class selection.
  kHistory = 2,
};

struct ContainerRequest {
  JobId job = 0;
  // Shape of each container.
  Resources resources{1, 2048};
  // Number of containers wanted.
  int count = 1;
  // Allowed utilization classes (node-label disjunction). Empty = any server.
  std::vector<int> allowed_classes;
  // Expected task duration; RM-H forecasts each server's primary usage over
  // this window from the previous day's telemetry (paper §4.1 goal G3:
  // place tasks on servers likely to keep the resources free for the tasks'
  // durations). Only honored when `history_aware` is set (YARN-H).
  double task_seconds = 0.0;
  bool history_aware = false;
};

struct Container {
  ContainerId id = 0;
  JobId job = 0;
  ServerId server = kInvalidServer;
  Resources resources{1, 2048};
  double start_time = 0.0;
  // Opaque task handle for the AM (index into its task table).
  int64_t task_handle = -1;
};

}  // namespace harvest

#endif  // HARVEST_SRC_SCHEDULER_CONTAINER_H_
