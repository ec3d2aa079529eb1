// Event-driven co-location simulation of the YARN-like scheduler stack. Used
// by the testbed experiments (Figs 10-12) and the datacenter-scale sweeps
// (Figs 13-14). The same policy code (clustering service, Algorithm 1) that
// the library exposes publicly runs inside this simulator, mirroring the
// paper's methodology ("we use the same code that implements clustering,
// task scheduling, and data placement in our real systems").

#ifndef HARVEST_SRC_EXPERIMENTS_SCHEDULING_SIM_H_
#define HARVEST_SRC_EXPERIMENTS_SCHEDULING_SIM_H_

#include <memory>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/core/class_selector.h"
#include "src/core/job_history.h"
#include "src/fault/fault_plan.h"
#include "src/jobs/dag.h"
#include "src/jobs/workload.h"
#include "src/latency/service_model.h"
#include "src/power/energy_accountant.h"
#include "src/scheduler/resource_manager.h"
#include "src/storage/name_node.h"

namespace harvest {

// Which HDFS flavor (if any) the co-located jobs read from.
enum class StorageVariant {
  kNone = 0,     // scheduling-only experiment
  kStock = 1,    // primary-unaware placement + accesses
  kPrimaryAware = 2,  // stock placement, busy-server denial
  kHistory = 3,  // Algorithm 2 placement, busy-server denial
};

const char* StorageVariantName(StorageVariant variant);

struct SchedulingSimOptions {
  SchedulerMode mode = SchedulerMode::kHistory;
  StorageVariant storage = StorageVariant::kNone;
  // Clustering knobs for the H-mode snapshot (class granularity sweeps).
  ClusteringOptions clustering;
  double horizon_seconds = 5.0 * 3600.0;
  double mean_interarrival_seconds = 300.0;
  // Job length scaling for large fleets (paper §6.1).
  double job_duration_factor = 1.0;
  // Job typing thresholds (Tez-H); testbed defaults 173 s / 433 s.
  JobTypeThresholds thresholds;
  // Latency series (Figs 10/12); disable for datacenter-scale sweeps.
  bool collect_latency = false;
  // Blocks of job input the co-simulated file system holds.
  int64_t storage_blocks = 5000;
  // Unread; goes with the benchmark change that stops perfbench/probe.cc assigning it.
  int rm_shards = 0;
  // Unread; goes with the benchmark change that stops perfbench/probe.cc assigning it.
  int nn_shards = 0;
  // Worker cap for the RM's per-slot refresh. The simulation lowers it to
  // FleetTable::AutoShardCount(servers), so fleets under 8,192 servers
  // refresh on the calling thread. Execution layout only: results are
  // byte-identical for every value.
  int slot_threads = 1;
  // --- Power subsystem (src/power) ----------------------------------------
  // Energy / cost accounting riding the tick cadence. Off by default: no
  // accountant is built and no energy block is reported.
  bool power_accounting = false;
  // PriceCurve knob text ("" = the default flat:0.10); see price_curve.h.
  std::string energy_price;
  // Per-DC time-zone shift: this DC's price peak moves later by
  // dc_index * price_phase_hours.
  int dc_index = 0;
  double price_phase_hours = 0.0;
  // Dynamic right-sizing (H mode only): park / unpark primary-idle servers.
  bool rightsizing = false;
  double park_threshold = 0.05;
  // Batch-wave deferral (H mode only): shift eligible (medium / long)
  // arriving jobs into the upcoming valley of the fleet's day-ago forecast
  // when the valley is at least defer_min_gain utilization below now -- or
  // unconditionally while the sampled power exceeds power_cap_watts.
  bool defer_waves = false;
  double defer_window_hours = 6.0;
  double defer_min_gain = 0.02;
  double power_cap_watts = 0.0;  // 0 = no cap telemetry / cap-forced deferral
  // --- Fault subsystem (src/fault) -----------------------------------------
  // Compiled fault timeline, or nullptr for a fault-free run (the default:
  // every existing scenario is byte-identical). Not owned; must outlive the
  // simulation. Server down intervals evict containers and zero the server's
  // availability; telemetry blackouts hide day-ago history windows.
  const FaultTimeline* faults = nullptr;
  // Graceful degradation: while the day-ago forecast window overlaps a
  // telemetry blackout, RM-H drops history weighting and places on live
  // availability only (and class forecasts skip blacked-out samples).
  // Disable to measure how H behaves when it trusts missing history.
  bool forecast_fallback = true;
  uint64_t seed = 1;
};

struct JobRecord {
  std::string name;
  double arrival_seconds = 0.0;
  double finish_seconds = -1.0;
  double execution_seconds = -1.0;  // arrival to finish, includes queueing
  JobType type = JobType::kMedium;
  int64_t kills = 0;
};

// Per-utilization-class scheduling telemetry, collected only in kHistory mode
// (PT has no classes). Pure bookkeeping: collecting it draws no RNG, so
// results are bit-identical with and without consumers.
struct ClassSchedulingDiagnostics {
  int class_id = 0;
  std::string label;  // RM-H node label, e.g. "periodic-2"
  UtilizationPattern pattern = UtilizationPattern::kConstant;
  // Containers the class hosted, and how many of them were later killed by
  // reserve enforcement.
  int64_t containers = 0;
  int64_t kills = 0;
  // Total and mean scheduled task-seconds (lease durations) hosted.
  double lease_seconds = 0.0;
  double MeanLeaseSeconds() const {
    return containers > 0 ? lease_seconds / static_cast<double>(containers) : 0.0;
  }
  // How often Algorithm 1 put this class in a job's allowed set, and the
  // accumulated weight*headroom it contributed at those selections -- the
  // quantity the ranking-weight ablation needs.
  int64_t selections = 0;
  double rank_weight_contribution = 0.0;
};

struct SchedulingSimResult {
  std::vector<JobRecord> jobs;  // completed jobs only
  int64_t jobs_arrived = 0;
  int64_t jobs_completed = 0;
  int64_t total_kills = 0;
  double average_execution_seconds = 0.0;
  // Time-averaged total (primary + secondary) CPU utilization.
  double average_total_utilization = 0.0;
  // Time-averaged primary-only utilization (the No-Harvesting floor).
  double average_primary_utilization = 0.0;
  // Average of per-server p99 (ms) per latency window, when collected.
  std::vector<double> p99_series_ms;
  StorageStats storage;
  // Telemetry by the ground-truth pattern of the hosting server's tenant
  // (indexed by UtilizationPattern): where containers ran. Drives the
  // ablation analysis of the ranking weights.
  std::array<int64_t, 3> containers_by_pattern{0, 0, 0};
  // One entry per utilization class, in snapshot order; empty in PT mode.
  std::vector<ClassSchedulingDiagnostics> class_diagnostics;
  // Energy / cost ledger (power_accounting runs only).
  bool has_energy = false;
  EnergyTotals energy;
  // Fault subsystem telemetry (zero in fault-free runs): containers evicted
  // by server down transitions, and how long RM-H ran with history weighting
  // disabled because the day-ago window overlapped a telemetry blackout.
  int64_t fault_evictions = 0;
  double forecast_degraded_seconds = 0.0;
};

SchedulingSimResult RunSchedulingSimulation(const Cluster& cluster,
                                            const std::vector<JobDag>& suite,
                                            const SchedulingSimOptions& options);

// The No-Harvesting baseline of Figs 10/12: the same cluster and latency
// model with no secondary tenants at all.
SchedulingSimResult RunNoHarvestingBaseline(const Cluster& cluster,
                                            const SchedulingSimOptions& options);

}  // namespace harvest

#endif  // HARVEST_SRC_EXPERIMENTS_SCHEDULING_SIM_H_
