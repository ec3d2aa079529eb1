#include "src/experiments/scheduling_sim.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <tuple>
#include <unordered_map>

#include "src/core/utilization_clustering.h"
#include "src/jobs/app_master.h"
#include "src/sim/event_queue.h"
#include "src/util/logging.h"
#include "src/util/stats.h"

namespace harvest {

const char* StorageVariantName(StorageVariant variant) {
  switch (variant) {
    case StorageVariant::kNone:
      return "none";
    case StorageVariant::kStock:
      return "HDFS-Stock";
    case StorageVariant::kPrimaryAware:
      return "HDFS-PT";
    case StorageVariant::kHistory:
      return "HDFS-H";
  }
  return "unknown";
}

namespace {

constexpr double kJobWidthFactor = 1.0;         // only job lengths scale
constexpr double kLatencyWindowSeconds = 60.0;  // latency series (Figs 10/12)
// Reserve-enforcement / retry tick: the NM heartbeat cadence coarsened to
// telemetry granularity.
constexpr double kTickSeconds = kSlotSeconds;
constexpr int kAccessesPerTask = 2;  // block accesses at each task start
constexpr int kReplication = 3;      // replicas per co-simulated block

// Everything one simulation run needs, wired together.
class SchedulingSimulation {
 public:
  SchedulingSimulation(const Cluster& cluster, const std::vector<JobDag>& suite,
                       const SchedulingSimOptions& options)
      : cluster_(cluster),
        options_(options),
        rng_(options.seed),
        rm_(&cluster, options.mode, kDefaultReserve,
            std::min(options.slot_threads, FleetTable::AutoShardCount(cluster.num_servers()))),
        history_(options.thresholds),
        latency_model_() {
    // Scale the suite once.
    suite_.reserve(suite.size());
    for (const auto& dag : suite) {
      suite_.push_back(dag.Scaled(options.job_duration_factor, kJobWidthFactor));
    }
    if (options.mode == SchedulerMode::kHistory) {
      SetupHistoryScheduling();
    }
    if (options.storage != StorageVariant::kNone) {
      SetupStorage();
    }
    if (options.power_accounting) {
      PriceCurve price;
      std::string error;
      HARVEST_CHECK(PriceCurve::Parse(options.energy_price, &price, &error)) << error;
      price.ShiftPhase(static_cast<double>(options.dc_index) * options.price_phase_hours *
                       3600.0);
      accountant_ = std::make_unique<EnergyAccountant>(&rm_.fleet_table(), PowerModel{}, price,
                                                       options.power_cap_watts);
    }
    if (options.rightsizing && options.mode == SchedulerMode::kHistory) {
      ResourceManager::RightSizingOptions rightsizing;
      rightsizing.enabled = true;
      rightsizing.park_threshold = options.park_threshold;
      rm_.ConfigureRightSizing(rightsizing);
    }
    if (options.faults != nullptr && !options.faults->down.empty()) {
      // Flatten the down intervals into a sorted transition list; a per-server
      // depth counter makes overlapping intervals (rack outage inside a DC
      // outage) compose correctly. Recovery sorts before failure at the same
      // instant so abutting intervals do not double-toggle.
      fault_transitions_.reserve(options.faults->down.size() * 2);
      for (const ServerDownInterval& interval : options.faults->down) {
        fault_transitions_.push_back({interval.start, interval.server, +1});
        fault_transitions_.push_back({interval.end, interval.server, -1});
      }
      std::sort(fault_transitions_.begin(), fault_transitions_.end(),
                [](const FaultTransition& a, const FaultTransition& b) {
                  return std::tie(a.time, a.server, a.delta) <
                         std::tie(b.time, b.server, b.delta);
                });
      server_down_depth_.assign(cluster_.num_servers(), 0);
    }
  }

  SchedulingSimResult Run() {
    ScheduleArrivals();
    queue_.Schedule(kTickSeconds, [this] { Tick(); });
    if (options_.collect_latency) {
      queue_.Schedule(kLatencyWindowSeconds, [this] { LatencyWindow(); });
    }
    // Utilization sampling every tick is folded into Tick().
    queue_.RunUntil(options_.horizon_seconds);
    return Finalize();
  }

 private:
  struct RunningTask {
    JobId job = 0;
    int stage = 0;
    Container container;
  };

  // One edge of a server down interval: +1 enters an outage, -1 leaves one.
  struct FaultTransition {
    double time = 0.0;
    ServerId server = kInvalidServer;
    int delta = 0;
  };

  struct ActiveJob {
    std::unique_ptr<AppMaster> am;
    std::vector<int> allowed_classes;  // H mode; empty = any
    double start_time = -1.0;          // first container start
    JobType type = JobType::kMedium;
    bool awaiting_classes = false;     // H mode: selector returned empty
  };

  void SetupHistoryScheduling() {
    UtilizationClusteringService service(options_.clustering);
    Rng cluster_rng(options_.seed ^ 0x5eedULL);
    snapshot_ = service.Run(cluster_, cluster_rng);
    std::vector<int> server_class(cluster_.num_servers(), 0);
    for (const auto& cls : snapshot_.classes) {
      for (ServerId s : cls.servers) {
        server_class[static_cast<size_t>(s)] = cls.id;
      }
    }
    server_class_ = server_class;
    rm_.SetServerClasses(std::move(server_class));
    selector_ = std::make_unique<ClassSelector>(&snapshot_);

    result_.class_diagnostics.reserve(snapshot_.classes.size());
    for (size_t c = 0; c < snapshot_.classes.size(); ++c) {
      const UtilizationClass& cls = snapshot_.classes[c];
      ClassSchedulingDiagnostics diag;
      diag.class_id = cls.id;
      diag.label = cls.label;
      diag.pattern = cls.pattern;
      result_.class_diagnostics.push_back(std::move(diag));
      class_index_by_id_[cls.id] = c;
    }
  }

  // Diagnostics slot for a class id; nullptr in PT mode or for unknown ids.
  ClassSchedulingDiagnostics* DiagnosticsForClass(int class_id) {
    auto it = class_index_by_id_.find(class_id);
    if (it == class_index_by_id_.end()) {
      return nullptr;
    }
    return &result_.class_diagnostics[it->second];
  }

  void SetupStorage() {
    NameNodeOptions nn_options;
    nn_options.replication = kReplication;
    nn_options.primary_aware_access = options_.storage != StorageVariant::kStock;
    std::unique_ptr<PlacementPolicy> policy;
    if (options_.storage == StorageVariant::kHistory) {
      policy = std::make_unique<HistoryPlacement>(&cluster_);
    } else {
      policy = std::make_unique<StockPlacement>(&cluster_);
    }
    storage_rng_ = rng_.Fork();
    name_node_ = std::make_unique<NameNode>(&cluster_, std::move(policy), nn_options,
                                            &storage_rng_);
    // Pre-populate the file system with the jobs' input blocks.
    for (int64_t b = 0; b < options_.storage_blocks; ++b) {
      ServerId writer =
          static_cast<ServerId>(storage_rng_.NextBounded(cluster_.num_servers()));
      name_node_->CreateBlock(writer, 0.0);
    }
  }

  void ScheduleArrivals() {
    WorkloadOptions workload;
    workload.mean_interarrival_seconds = options_.mean_interarrival_seconds;
    workload.horizon_seconds = options_.horizon_seconds;
    Rng arrivals_rng(options_.seed ^ 0xa221ULL);
    arrivals_ = GenerateArrivals(workload, static_cast<int>(suite_.size()), arrivals_rng);
    for (const auto& arrival : arrivals_) {
      queue_.Schedule(arrival.time_seconds,
                      [this, query = arrival.query] { OnJobArrival(query); });
    }
  }

  // Fleet-aggregate day-ago forecast for the next defer-window slots: the
  // server-weighted mean utilization fraction across the FleetTable's
  // pooled traces, read from the same day-ago samples RM-H placement
  // inspects (NodeManager::ForecastStartSlot / ForecastSampleAt). Cached
  // per telemetry slot; curve[i] forecasts slot now_slot + i.
  void RefreshDeferralCurve(int64_t now_slot) {
    if (now_slot == defer_curve_slot_) {
      return;
    }
    defer_curve_slot_ = now_slot;
    const int window_slots = std::max(
        1, static_cast<int>(options_.defer_window_hours * 3600.0 / kSlotSeconds));
    defer_curve_.assign(static_cast<size_t>(window_slots) + 1, 0.0);
    const FleetTable& table = rm_.fleet_table();
    const int64_t day_ago = now_slot - static_cast<int64_t>(kSlotsPerDay);
    const double total = static_cast<double>(table.num_servers());
    if (total <= 0.0) {
      return;
    }
    for (size_t i = 0; i < defer_curve_.size(); ++i) {
      double sum = 0.0;
      for (int g = 0; g < table.num_groups(); ++g) {
        const size_t begin = table.group_begin(g);
        const int32_t trace = table.trace_index()[begin];
        if (trace < 0) {
          continue;  // trace-less servers forecast as idle
        }
        // Wrap (rather than clamp) the day-ago index: a negative index --
        // the whole first simulated day, where short horizons live entirely
        // -- reads the same time of day one trace period later, which for
        // the periodic telemetry the curve summarizes is the honest diurnal
        // forecast. Placement forecasts keep the NM's clamped convention.
        const UtilizationTrace& series = *table.trace(trace);
        const int64_t period = static_cast<int64_t>(series.size());
        const int64_t slot = day_ago + static_cast<int64_t>(i);
        const int64_t wrapped = ((slot % period) + period) % period;
        sum += static_cast<double>(table.group_end(g) - begin) * series.AtSlot(wrapped);
      }
      defer_curve_[i] = sum / total;
    }
  }

  // Batch-wave deferral (H mode): seconds to hold an eligible arriving job
  // so it starts at the best forecast valley within the defer window. 0 =
  // admit now. Short jobs are latency-bound and never deferred; the valley
  // must beat the current forecast by defer_min_gain -- unless the sampled
  // power is over power_cap_watts, which forces the shift. Consumes no RNG.
  double DeferralDelaySeconds(const JobDag& dag) {
    if (!options_.defer_waves || options_.mode != SchedulerMode::kHistory) {
      return 0.0;
    }
    if (history_.TypeOf(dag.name()) == JobType::kShort) {
      return 0.0;
    }
    const double now = queue_.now();
    const int64_t now_slot = static_cast<int64_t>(std::floor(now / kSlotSeconds));
    RefreshDeferralCurve(now_slot);
    size_t best = 0;
    for (size_t i = 1; i < defer_curve_.size(); ++i) {
      const double target =
          static_cast<double>(now_slot + static_cast<int64_t>(i)) * kSlotSeconds;
      if (target > options_.horizon_seconds) {
        break;  // never defer a job out of the measured window
      }
      if (defer_curve_[i] < defer_curve_[best]) {
        best = i;
      }
    }
    if (best == 0) {
      return 0.0;
    }
    const bool over_cap = options_.power_cap_watts > 0.0 && accountant_ != nullptr &&
                          accountant_->last_power_watts() > options_.power_cap_watts;
    if (!over_cap && defer_curve_[0] - defer_curve_[best] < options_.defer_min_gain) {
      return 0.0;
    }
    return static_cast<double>(now_slot + static_cast<int64_t>(best)) * kSlotSeconds - now;
  }

  void OnJobArrival(int query) {
    const double delay = DeferralDelaySeconds(suite_[static_cast<size_t>(query)]);
    if (delay > 0.0) {
      ++deferred_jobs_;
      deferred_seconds_ += delay;
      // A deferred job re-arrives at its target wave: execution_seconds
      // measures admission-to-finish, like a batch queue that admits at the
      // submitted start window. The deliberate wait itself is reported
      // separately (deferred_jobs / deferred_seconds in the energy block),
      // not folded into the H-vs-PT execution delta it would otherwise
      // dominate.
      queue_.Schedule(queue_.now() + delay,
                      [this, query] { AdmitJob(query, queue_.now()); });
      return;
    }
    AdmitJob(query, queue_.now());
  }

  void AdmitJob(int query, double arrival_time) {
    ++result_.jobs_arrived;
    const JobDag* dag = &suite_[static_cast<size_t>(query)];
    JobId id = next_job_id_++;
    ActiveJob job;
    job.am = std::make_unique<AppMaster>(id, dag, arrival_time);
    job.type = history_.TypeOf(dag->name());
    jobs_.emplace(id, std::move(job));
    pending_.insert(id);  // a fresh AM always has pending root tasks
    if (options_.mode == SchedulerMode::kHistory) {
      // Two-tier admission ask: first the whole DAG's maximum concurrent
      // need (Algorithm 1's selection quantum), so a class that can carry
      // the job end-to-end is preferred when one exists. If nothing covers
      // that, TryScheduleJob's awaiting branch immediately retries sized to
      // the first runnable wave -- admitting the job piecemeal beats
      // holding it for a class large enough for a width it may only reach
      // an hour from now.
      ActiveJob& fresh = jobs_.at(id);
      SelectClasses(fresh, fresh.am->dag().MaxConcurrentCores());
    }
    TryScheduleJob(id);
  }

  // History forecasts of each class's peak utilization over the next
  // kMinForecastWindowSeconds (medium jobs) and twice that (long jobs), read
  // from the same day-ago telemetry window RM-H task placement inspects
  // (NodeManager::ForecastStartSlot / ForecastSampleAt). Like
  // UtilizationClass::peak_utilization, these are peaks of the class's
  // *aggregate* series (per-slot mean across member tenants): a job lands
  // across the class's servers, so it rides the class aggregate, not one
  // member's worst moment. Traces are piecewise-constant per telemetry slot,
  // so the values are cached per slot.
  void RefreshClassForecasts(double now) {
    const int64_t slot = static_cast<int64_t>(std::floor(now / kSlotSeconds));
    if (slot == class_forecast_slot_) {
      return;
    }
    class_forecast_slot_ = slot;
    const int medium_samples = NodeManager::ForecastSampleCount(kMinForecastWindowSeconds);
    const int long_samples = NodeManager::ForecastSampleCount(2.0 * kMinForecastWindowSeconds);
    const int64_t start_slot = NodeManager::ForecastStartSlot(now);
    class_forecast_util_.assign(snapshot_.classes.size(), -1.0);
    class_long_forecast_util_.assign(snapshot_.classes.size(), -1.0);
    for (size_t c = 0; c < snapshot_.classes.size(); ++c) {
      const UtilizationClass& cls = snapshot_.classes[c];
      double medium_peak = -1.0;
      double long_peak = -1.0;
      for (int i = 0; i < long_samples; ++i) {
        // A telemetry blackout means the day-ago samples simply do not
        // exist; skipping them (rather than reading zeros) leaves a class
        // whose whole window is dark at peak -1, which the selector already
        // treats as "no usable history" -- the same graceful fallback as a
        // trace-less class. Clamp mirrors ForecastSampleAt's convention.
        if (options_.faults != nullptr && options_.forecast_fallback &&
            options_.faults->InBlackout(
                static_cast<double>(std::max<int64_t>(0, start_slot + i)) *
                kSlotSeconds)) {
          continue;
        }
        double slot_sum = 0.0;
        size_t counted = 0;
        for (TenantId t : cls.tenants) {
          const UtilizationTrace& trace = cluster_.tenant(t).average_utilization;
          if (trace.empty()) {
            continue;
          }
          slot_sum += NodeManager::ForecastSampleAt(trace, start_slot + i);
          ++counted;
        }
        if (counted == 0) {
          continue;
        }
        const double aggregate = slot_sum / static_cast<double>(counted);
        if (i < medium_samples) {
          medium_peak = std::max(medium_peak, aggregate);
        }
        long_peak = std::max(long_peak, aggregate);
      }
      class_forecast_util_[c] = medium_peak;
      class_long_forecast_util_[c] = long_peak;
    }
  }

  // Cores the job's currently runnable (unlocked, unscheduled) tasks need
  // concurrently -- the demand a mid-flight class re-selection must cover.
  // The whole-DAG MaxConcurrentCores is only the right ask at arrival;
  // holding a half-done job to it would reject class sets that comfortably
  // host the remaining wave.
  int RunnableDemandCores(const ActiveJob& job) const {
    int cores = 0;
    for (const TaskDemand& demand : job.am->RunnableTasks()) {
      cores += demand.count * job.am->dag().stage(demand.stage).per_task.cores;
    }
    return std::max(1, cores);
  }

  // Algorithm 1 front-end: picks the class set for a job.
  void SelectClasses(ActiveJob& job, int required_cores) {
    const double now = queue_.now();
    RefreshClassForecasts(now);
    std::vector<ClassState> states;
    states.reserve(snapshot_.classes.size());
    for (size_t c = 0; c < snapshot_.classes.size(); ++c) {
      const UtilizationClass& cls = snapshot_.classes[c];
      ClassState state;
      state.class_id = cls.id;
      state.current_utilization = rm_.ClassCurrentUtilization(cls.id, now);
      state.available_cores = rm_.ClassAvailableCores(cls.id, now);
      state.forecast_utilization = class_forecast_util_[c];
      state.long_forecast_utilization = class_long_forecast_util_[c];
      states.push_back(state);
    }
    ClassSelection selection = selector_->Select(job.type, required_cores, states, rng_);
    for (size_t i = 0; i < selection.class_ids.size(); ++i) {
      ClassSchedulingDiagnostics* diag = DiagnosticsForClass(selection.class_ids[i]);
      if (diag == nullptr) {
        continue;
      }
      ++diag->selections;
      diag->rank_weight_contribution +=
          selector_->weights().weight[static_cast<int>(selection.job_type)]
                                     [static_cast<int>(diag->pattern)] *
          selection.headrooms[i];
    }
    job.allowed_classes = selection.class_ids;
    job.awaiting_classes = selection.empty();
  }

  void TryScheduleJob(JobId id) {
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      return;
    }
    ActiveJob& job = it->second;
    if (job.awaiting_classes) {
      // An empty class pick is not a 120-second sentence. This fires both
      // straight from arrival -- the whole-DAG ask found no class, so fall
      // back to admitting the first runnable wave -- and from retry sweeps,
      // where resources freed by the triggering completion / kill may make
      // a class eligible right now, exactly like a PT job grabbing freed
      // cores in the same sweep. Selection consumes RNG only when it
      // succeeds, so a still-empty attempt leaves every stream untouched.
      SelectClasses(job, RunnableDemandCores(job));
      if (job.awaiting_classes) {
        return;  // still nothing anywhere (stays in pending_)
      }
    }
    const double now = queue_.now();
    bool allocation_short = false;  // some runnable demand went unplaced
    for (const TaskDemand& demand : job.am->RunnableTasks()) {
      const Stage& stage = job.am->dag().stage(demand.stage);
      ContainerRequest request;
      request.job = id;
      request.resources = stage.per_task;
      request.count = demand.count;
      request.allowed_classes = job.allowed_classes;
      // Tez-H knows how long this stage's tasks ran historically; a small
      // margin covers run-to-run variation.
      request.task_seconds = stage.task_seconds * 1.2;
      request.history_aware = options_.mode == SchedulerMode::kHistory;
      std::vector<Container> placed = rm_.Allocate(request, now, rng_);
      if (static_cast<int>(placed.size()) < demand.count) {
        allocation_short = true;
      }
      if (placed.empty()) {
        // Stop the retry sweep early only when the *whole cluster* rejected
        // the shape -- i.e. a label-free (PT) request. An H request going
        // empty means this job's classes are full, which says nothing about
        // the next job's classes; breaking the sweep on it starved every
        // queued job behind the first one with saturated classes.
        if (request.allowed_classes.empty()) {
          cluster_full_hint_ = true;
        }
        continue;
      }
      job.am->OnTasksScheduled(demand.stage, static_cast<int>(placed.size()));
      if (job.start_time < 0.0) {
        job.start_time = now;
      }
      for (const Container& container : placed) {
        RunningTask task{id, demand.stage, container};
        running_.emplace(container.id, task);
        if (accountant_) {
          accountant_->OnContainerStart(container.resources.cores);
        }
        IssueTaskAccesses(now);
        UtilizationPattern pattern =
            cluster_.tenant(cluster_.server(container.server).tenant).true_pattern;
        ++result_.containers_by_pattern[static_cast<size_t>(pattern)];
        if (!server_class_.empty()) {
          ClassSchedulingDiagnostics* diag =
              DiagnosticsForClass(server_class_[static_cast<size_t>(container.server)]);
          if (diag != nullptr) {
            ++diag->containers;
            diag->lease_seconds += stage.task_seconds;
          }
        }
        queue_.Schedule(now + stage.task_seconds, [this, cid = container.id] {
          OnTaskCompletion(cid);
        });
      }
    }
    // A short allocation means the job's allowed classes cannot host its
    // remaining demand right now. Holding the stale class set would strand
    // the job until it fully starved (all tasks done or killed, a whole
    // tick away); re-running Algorithm 1 -- sized to the *remaining* wave,
    // not the whole DAG -- lets the next retry ask with classes that
    // currently have room, mirroring how a PT job's retry sees the whole
    // fleet's live availability. When even the re-selection finds nothing,
    // the job keeps its previous classes: a started job trickling tasks into
    // a slowly-freeing class beats one frozen with no classes at all.
    if (options_.mode == SchedulerMode::kHistory && allocation_short &&
        job.am->PendingTasks() > 0) {
      std::vector<int> previous = job.allowed_classes;
      SelectClasses(job, RunnableDemandCores(job));
      if (job.awaiting_classes && !previous.empty()) {
        job.allowed_classes = std::move(previous);
        job.awaiting_classes = false;
      }
    }
    // Keep the pending queue exact: a job is queued iff it still has
    // unscheduled tasks in unlocked stages. TryScheduleJob only ever
    // *shrinks* a job's pending demand, so during a RetryPendingJobs sweep
    // this can erase the current element (iterator already advanced) but
    // never inserts new ones ahead of it.
    if (job.am->PendingTasks() > 0) {
      pending_.insert(id);
    } else {
      pending_.erase(id);
    }
  }

  void IssueTaskAccesses(double now) {
    if (!name_node_ || name_node_->num_blocks() == 0) {
      return;
    }
    for (int a = 0; a < kAccessesPerTask; ++a) {
      BlockId block =
          static_cast<BlockId>(storage_rng_.NextBounded(
              static_cast<uint64_t>(name_node_->num_blocks())));
      AccessResult access = name_node_->Access(block, now);
      if (access == AccessResult::kServedInterfering) {
        ++window_interfering_;
      }
    }
  }

  void OnTaskCompletion(ContainerId cid) {
    auto it = running_.find(cid);
    if (it == running_.end()) {
      return;  // the container was killed before completing
    }
    RunningTask task = it->second;
    running_.erase(it);
    rm_.Release(task.container);
    if (accountant_) {
      accountant_->OnContainerEnd(task.container.resources.cores,
                                  task.container.start_time, queue_.now());
    }

    ActiveJob& job = jobs_.at(task.job);
    bool finished = job.am->OnTaskComplete(task.stage, queue_.now());
    if (finished) {
      FinishJob(task.job);
    } else {
      TryScheduleJob(task.job);  // newly unlocked stages
    }
    // Freed resources may unblock other queued jobs.
    RetryPendingJobs();
  }

  void FinishJob(JobId id) {
    ActiveJob& job = jobs_.at(id);
    JobRecord record;
    record.name = job.am->dag().name();
    record.arrival_seconds = job.am->arrival_time();
    record.finish_seconds = job.am->finish_time();
    record.execution_seconds = job.am->ExecutionSeconds();
    record.type = job.type;
    record.kills = job.am->kills();
    result_.jobs.push_back(record);
    ++result_.jobs_completed;
    result_.total_kills += job.am->kills();
    // The execution itself (excluding queueing) feeds the next run's typing,
    // mirroring Tez-H's observed-length bookkeeping.
    double execution = job.am->finish_time() - (job.start_time >= 0.0 ? job.start_time
                                                                      : job.am->arrival_time());
    history_.RecordRun(record.name, execution);
    pending_.erase(id);  // a finished job has no pending tasks, but be exact
    jobs_.erase(id);     // ordered-map erase: O(log n), no vector compaction
  }

  void RetryPendingJobs() {
    cluster_full_hint_ = false;
    // Arrival order (FIFO fairness; job ids are issued in arrival order, so
    // the ordered set already iterates oldest-first). Only jobs that
    // actually have pending demand are visited -- completed and fully
    // scheduled jobs never enter the sweep. Stop early once an allocation
    // attempt reports a full cluster -- all requests share one container
    // shape here.
    for (auto it = pending_.begin(); it != pending_.end();) {
      JobId id = *it;
      ++it;  // TryScheduleJob may erase `id` once its demand is satisfied
      TryScheduleJob(id);
      if (cluster_full_hint_) {
        break;
      }
    }
  }

  // Applies every fault transition due by `now` (tick granularity: the
  // coarsened NM-heartbeat cadence at which the RM would observe a lost
  // server in the real system). Containers on a failing server are evicted
  // and returned to their AMs exactly like reserve kills -- same accounting
  // path -- except they are attributed to fault_evictions, not to the
  // pattern / class kill diagnostics the ranking-weight ablation reads.
  void ProcessFaultTransitions(double now) {
    while (fault_cursor_ < fault_transitions_.size() &&
           fault_transitions_[fault_cursor_].time <= now) {
      const FaultTransition& transition = fault_transitions_[fault_cursor_++];
      const size_t i = static_cast<size_t>(transition.server);
      const int before = server_down_depth_[i];
      server_down_depth_[i] = before + transition.delta;
      const bool was_down = before > 0;
      const bool is_down = server_down_depth_[i] > 0;
      if (was_down == is_down) {
        continue;  // nested interval; the outer one already holds the server
      }
      std::vector<Container> evicted = rm_.SetServerDown(transition.server, is_down);
      for (const Container& container : evicted) {
        auto it = running_.find(container.id);
        if (it == running_.end()) {
          continue;
        }
        RunningTask task = it->second;
        running_.erase(it);
        if (accountant_) {
          accountant_->OnContainerEnd(container.resources.cores, container.start_time,
                                      now);
        }
        jobs_.at(task.job).am->OnTaskKilled(task.stage);
        pending_.insert(task.job);
        ++window_kills_[container.server];
        ++fault_evictions_;
      }
    }
  }

  void Tick() {
    const double now = queue_.now();
    // Fault transitions land first: a server that died during the elapsed
    // interval is gone before reserves are enforced or retries placed on it.
    if (!fault_transitions_.empty()) {
      ProcessFaultTransitions(now);
    }
    // Telemetry-blackout degradation: when the day-ago window RM-H placement
    // reads (ForecastStartSlot .. +2*kMinForecastWindowSeconds, the long-job
    // horizon) overlaps a blackout, history weighting is suspended and H
    // places on live availability only -- Algorithm 1's graceful fallback.
    if (options_.faults != nullptr && options_.forecast_fallback &&
        options_.mode == SchedulerMode::kHistory) {
      const double window_start =
          now - static_cast<double>(kSlotsPerDay) * kSlotSeconds;
      const bool degraded = options_.faults->OverlapsBlackout(
          window_start, window_start + 2.0 * kMinForecastWindowSeconds);
      rm_.SetForecastDegraded(degraded);
      if (degraded) {
        forecast_degraded_seconds_ += kTickSeconds;
      }
    }
    // 0. Energy: integrate the interval that just elapsed under the parked
    // state in force during it (parking transitions happen at the END of a
    // tick, so the counts set then cover [now - tick, now) -- placement
    // effect immediate, power effect at the next slot boundary).
    if (accountant_) {
      accountant_->IntegrateSlot(now - kTickSeconds, now,
                                 rm_.group_parked().empty() ? nullptr : &rm_.group_parked());
    }
    // 1. NMs replenish reserves; killed tasks return to their AMs.
    std::vector<Container> killed = rm_.EnforceReserves(now);
    for (const Container& container : killed) {
      auto it = running_.find(container.id);
      if (it == running_.end()) {
        continue;
      }
      RunningTask task = it->second;
      running_.erase(it);
      if (accountant_) {
        accountant_->OnContainerEnd(container.resources.cores, container.start_time, now);
      }
      jobs_.at(task.job).am->OnTaskKilled(task.stage);
      pending_.insert(task.job);  // the killed task returns to the pending pool
      ++window_kills_[container.server];
      if (!server_class_.empty()) {
        ClassSchedulingDiagnostics* diag =
            DiagnosticsForClass(server_class_[static_cast<size_t>(container.server)]);
        if (diag != nullptr) {
          ++diag->kills;
        }
      }
    }
    // 2. Pending demands retry (resources freed by kills / primary ebb).
    // H-mode class refresh is event-driven now: TryScheduleJob re-runs
    // Algorithm 1 whenever a job's allowed classes come up short, so no
    // separate starvation sweep is needed.
    RetryPendingJobs();
    // 3. Utilization sample.
    utilization_sum_ += rm_.AverageTotalUtilization(now);
    primary_sum_ += cluster_.AverageUtilizationAt(now);
    ++utilization_samples_;
    // 4. Right-sizing transitions for the interval that starts now.
    if (options_.rightsizing && options_.mode == SchedulerMode::kHistory) {
      rm_.UpdateParking(now);
    }

    if (now + kTickSeconds <= options_.horizon_seconds) {
      queue_.Schedule(now + kTickSeconds, [this] { Tick(); });
    }
  }

  void LatencyWindow() {
    const double now = queue_.now();
    SummaryStats window;
    // Interfering accesses are tracked cluster-wide; attribute them evenly,
    // spreading the integer remainder over the first servers. (Plain
    // truncated division loses the entire count at fleet scale: with more
    // servers than interfering accesses every server rounds to 0.)
    const int64_t num_servers = static_cast<int64_t>(cluster_.num_servers());
    const int64_t interfering_base = window_interfering_ / num_servers;
    const int64_t interfering_remainder = window_interfering_ % num_servers;
    for (size_t s = 0; s < cluster_.num_servers(); ++s) {
      const NodeManager& node = rm_.node(static_cast<ServerId>(s));
      double primary_load = cluster_.server(static_cast<ServerId>(s)).PrimaryUtilizationAt(now);
      int kills = 0;
      if (auto it = window_kills_.find(static_cast<ServerId>(s)); it != window_kills_.end()) {
        kills = it->second;
      }
      int interfering = static_cast<int>(
          interfering_base + (static_cast<int64_t>(s) < interfering_remainder ? 1 : 0));
      double p99 = latency_model_.ServerP99(primary_load, node.OvercommitCores(now),
                                            node.TotalUtilization(now), kills, interfering,
                                            rng_);
      window.Add(p99);
    }
    result_.p99_series_ms.push_back(window.mean());
    window_kills_.clear();
    window_interfering_ = 0;
    if (now + kLatencyWindowSeconds <= options_.horizon_seconds) {
      queue_.Schedule(now + kLatencyWindowSeconds, [this] { LatencyWindow(); });
    }
  }

  SchedulingSimResult Finalize() {
    SummaryStats exec;
    for (const auto& record : result_.jobs) {
      exec.Add(record.execution_seconds);
    }
    result_.average_execution_seconds = exec.mean();
    if (utilization_samples_ > 0) {
      result_.average_total_utilization = utilization_sum_ / utilization_samples_;
      result_.average_primary_utilization = primary_sum_ / utilization_samples_;
    }
    if (name_node_) {
      result_.storage = name_node_->stats();
    }
    result_.fault_evictions = fault_evictions_;
    result_.forecast_degraded_seconds = forecast_degraded_seconds_;
    if (accountant_) {
      // Close out still-running containers at the horizon, in container-id
      // order (every placed container ends exactly once).
      std::vector<ContainerId> live;
      live.reserve(running_.size());
      // detlint: ordered-ok(keys only, sorted before any result-affecting use)
      for (const auto& [cid, task] : running_) {
        (void)task;
        live.push_back(cid);
      }
      std::sort(live.begin(), live.end());
      for (ContainerId cid : live) {
        const RunningTask& task = running_.at(cid);
        accountant_->OnContainerEnd(task.container.resources.cores,
                                    task.container.start_time, options_.horizon_seconds);
      }
      EnergyTotals& energy = accountant_->totals();
      energy.park_events = rm_.parking_stats().park_events;
      energy.unpark_events = rm_.parking_stats().unpark_events;
      energy.forced_unparks = rm_.parking_stats().forced_unparks;
      energy.deferred_jobs = deferred_jobs_;
      energy.deferred_seconds = deferred_seconds_;
      result_.energy = energy;
      result_.has_energy = true;
    }
    return std::move(result_);
  }

  const Cluster& cluster_;
  SchedulingSimOptions options_;
  Rng rng_;
  Rng storage_rng_;
  EventQueue queue_;
  ResourceManager rm_;
  JobHistory history_;
  ServiceLatencyModel latency_model_;
  std::vector<JobDag> suite_;
  std::vector<JobArrival> arrivals_;
  ClusteringSnapshot snapshot_;
  std::vector<int> server_class_;  // H mode: server -> class id
  // Per-class history forecasts (see RefreshClassForecasts), cached per
  // telemetry slot; -1 marks classes without usable traces.
  std::vector<double> class_forecast_util_;
  std::vector<double> class_long_forecast_util_;
  int64_t class_forecast_slot_ = std::numeric_limits<int64_t>::min();
  std::unordered_map<int, size_t> class_index_by_id_;
  std::unique_ptr<ClassSelector> selector_;
  std::unique_ptr<NameNode> name_node_;
  // Live jobs keyed by id. Ids are issued in arrival order, so the ordered
  // map doubles as the FIFO arrival order the retry/starvation sweeps need;
  // erasing a finished job is O(log n) with stable iterators (no dense
  // vector to compact or copy).
  std::map<JobId, ActiveJob> jobs_;
  // Jobs with unscheduled tasks in unlocked stages, in arrival order: the
  // retry queue. Woken by resource-release (task completion) and kill
  // events; membership is maintained exactly at every transition, so a
  // retry sweep touches only jobs that can actually make progress.
  std::set<JobId> pending_;
  std::unordered_map<ContainerId, RunningTask> running_;
  // Power subsystem: the energy / cost ledger (power_accounting runs only)
  // and the deferral valley curve, cached per telemetry slot.
  std::unique_ptr<EnergyAccountant> accountant_;
  std::vector<double> defer_curve_;
  int64_t defer_curve_slot_ = std::numeric_limits<int64_t>::min();
  int64_t deferred_jobs_ = 0;
  double deferred_seconds_ = 0.0;
  // Fault subsystem: server down-interval edges in time order, a per-server
  // nesting depth (overlapping intervals compose), and the cursor of the
  // next unapplied edge. Empty in fault-free runs.
  std::vector<FaultTransition> fault_transitions_;
  std::vector<int> server_down_depth_;
  size_t fault_cursor_ = 0;
  int64_t fault_evictions_ = 0;
  double forecast_degraded_seconds_ = 0.0;
  std::unordered_map<ServerId, int> window_kills_;
  int64_t window_interfering_ = 0;
  double utilization_sum_ = 0.0;
  double primary_sum_ = 0.0;
  int64_t utilization_samples_ = 0;
  bool cluster_full_hint_ = false;
  JobId next_job_id_ = 1;
  SchedulingSimResult result_;
};

}  // namespace

SchedulingSimResult RunSchedulingSimulation(const Cluster& cluster,
                                            const std::vector<JobDag>& suite,
                                            const SchedulingSimOptions& options) {
  SchedulingSimulation simulation(cluster, suite, options);
  return simulation.Run();
}

SchedulingSimResult RunNoHarvestingBaseline(const Cluster& cluster,
                                            const SchedulingSimOptions& options) {
  SchedulingSimOptions no_harvest = options;
  // An interarrival far beyond the horizon yields zero arrivals.
  no_harvest.mean_interarrival_seconds = options.horizon_seconds * 1e6;
  no_harvest.storage = StorageVariant::kNone;
  no_harvest.mode = SchedulerMode::kPrimaryAware;
  std::vector<JobDag> empty_suite = {JobDag("noop", {Stage{"noop", 1, 1.0, {1, 128}, {}}})};
  return RunSchedulingSimulation(cluster, empty_suite, no_harvest);
}

}  // namespace harvest
