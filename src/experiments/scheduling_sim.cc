#include "src/experiments/scheduling_sim.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>
#include <unordered_map>

#include "src/core/utilization_clustering.h"
#include "src/experiments/storage_cosim.h"
#include "src/jobs/app_master.h"
#include "src/util/dense_id_set.h"
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

constexpr double kLatencyWindowSeconds = 60.0;  // latency series (Figs 10/12)
// Reserve-enforcement / retry tick: the NM heartbeat cadence coarsened to
// telemetry granularity.
constexpr double kTickSeconds = kSlotSeconds;
constexpr int kAccessesPerTask = 2;  // block accesses at each task start
constexpr int kReplication = 3;      // replicas per co-simulated block

// What an event does when it fires.
enum class EventKind : uint8_t {
  kArrival,         // id: the arriving job's query (index into the suite)
  kDeferredAdmit,   // id: the deferred job's query
  kTick,            // reserve enforcement, retries, sampling; id unused
  kLatencyWindow,   // id unused
  kTaskCompletion,  // id: the finishing container
};

// Events fire in time order, and events at one instant in the order they
// were scheduled: `sequence` is stamped from one counter for every kind.
struct Event {
  double when;
  uint64_t sequence;
  EventKind kind;
  int64_t id;
};

struct FiresLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.when != b.when) {
      return a.when > b.when;
    }
    return a.sequence > b.sequence;
  }
};

// Everything one simulation run needs, wired together.
class SchedulingSimulation {
 public:
  SchedulingSimulation(const Cluster& cluster, const std::vector<JobDag>& suite,
                       const SchedulingSimOptions& options)
      : cluster_(cluster),
        options_(options),
        rng_(options.seed),
        rm_(&cluster, options.mode, kDefaultReserve),
        history_(options.thresholds),
        latency_model_() {
    // Scale the suite once.
    suite_.reserve(suite.size());
    for (const auto& dag : suite) {
      suite_.push_back(dag.Scaled(options.job_duration_factor));
    }
    if (options.mode == SchedulerMode::kHistory) {
      SetupHistoryScheduling();
    }
    if (options.collect_latency) {
      window_kills_.assign(cluster.num_servers(), 0);
    }
    if (options.storage != StorageVariant::kNone) {
      SetupStorage();
    }
    if (options.power_accounting) {
      PriceCurve price = options.energy_price;
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
  }

  SchedulingSimResult Run() {
    ScheduleArrivals();
    Schedule(kTickSeconds, EventKind::kTick);
    if (options_.collect_latency) {
      Schedule(kLatencyWindowSeconds, EventKind::kLatencyWindow);
    }
    // Utilization sampling every tick is folded into Tick().
    while (!events_.empty() && events_.top().when <= options_.horizon_seconds) {
      const Event event = events_.top();
      events_.pop();
      now_ = event.when;
      switch (event.kind) {
        case EventKind::kArrival:
          OnJobArrival(static_cast<int>(event.id));
          break;
        case EventKind::kDeferredAdmit:
          AdmitJob(static_cast<int>(event.id), now_);
          break;
        case EventKind::kTick:
          Tick();
          break;
        case EventKind::kLatencyWindow:
          LatencyWindow();
          break;
        case EventKind::kTaskCompletion:
          OnTaskCompletion(event.id);
          break;
      }
    }
    return Finalize();
  }

 private:
  struct RunningTask {
    JobId job = 0;
    int stage = 0;
    Container container;
  };

  struct ActiveJob {
    std::unique_ptr<AppMaster> am;     // null once the job finished
    std::vector<int> allowed_classes;  // H mode; empty = any
    double start_time = -1.0;          // first container start
    JobType type = JobType::kMedium;
    bool awaiting_classes = false;     // H mode: selector returned empty
  };

  ActiveJob& Job(JobId id) { return jobs_[static_cast<size_t>(id)]; }

  // Every scheduled time is now_ plus a positive delay, or an arrival
  // generated before the run starts, so no event lands in the past.
  void Schedule(double when, EventKind kind, int64_t id = 0) {
    events_.push(Event{when, next_sequence_++, kind, id});
  }

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
    class_available_cores_.assign(snapshot_.classes.size(), 0);

    result_.class_diagnostics.reserve(snapshot_.classes.size());
    for (const UtilizationClass& cls : snapshot_.classes) {
      ClassSchedulingDiagnostics diag;
      diag.class_id = cls.id;
      diag.label = cls.label;
      diag.pattern = cls.pattern;
      result_.class_diagnostics.push_back(std::move(diag));
    }
  }

  // Diagnostics slot for a class id (class ids are snapshot indices);
  // nullptr in PT mode or for unknown ids.
  ClassSchedulingDiagnostics* DiagnosticsForClass(int class_id) {
    if (class_id < 0 || static_cast<size_t>(class_id) >= result_.class_diagnostics.size()) {
      return nullptr;
    }
    return &result_.class_diagnostics[static_cast<size_t>(class_id)];
  }

  // Diagnostics slot of the class hosting `server`; nullptr in PT mode.
  ClassSchedulingDiagnostics* DiagnosticsForServer(ServerId server) {
    if (server_class_.empty()) {
      return nullptr;
    }
    return DiagnosticsForClass(server_class_[static_cast<size_t>(server)]);
  }

  void SetupStorage() {
    NameNodeOptions nn_options;
    nn_options.replication = kReplication;
    nn_options.primary_aware_access = options_.storage != StorageVariant::kStock;
    // HDFS-Stock and HDFS-PT place alike; they differ only in access.
    const PlacementKind placement = options_.storage == StorageVariant::kHistory
                                        ? PlacementKind::kHistory
                                        : PlacementKind::kStock;
    storage_rng_ = rng_.Fork();
    name_node_ = std::make_unique<NameNode>(
        &cluster_, MakePlacementPolicy(placement, &cluster_), nn_options, &storage_rng_);
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
    for (const JobArrival& arrival :
         GenerateArrivals(workload, static_cast<int>(suite_.size()), arrivals_rng)) {
      Schedule(arrival.time_seconds, EventKind::kArrival, arrival.query);
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
    // DeferralDelaySeconds never reads past the horizon, so the curve stops
    // there; bounded in floating point before narrowing to int.
    const double slots_to_horizon =
        std::floor(options_.horizon_seconds / kSlotSeconds) - static_cast<double>(now_slot) + 1.0;
    const int window_slots = std::max(
        1, static_cast<int>(std::min(options_.defer_window_hours * 3600.0 / kSlotSeconds,
                                     slots_to_horizon)));
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
    const double now = now_;
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
      Schedule(now_ + delay, EventKind::kDeferredAdmit, query);
      return;
    }
    AdmitJob(query, now_);
  }

  void AdmitJob(int query, double arrival_time) {
    ++result_.jobs_arrived;
    const JobDag* dag = &suite_[static_cast<size_t>(query)];
    const JobId id = next_job_id_++;
    jobs_.resize(static_cast<size_t>(id) + 1);  // the only place jobs_ grows
    ActiveJob& job = Job(id);
    job.am = std::make_unique<AppMaster>(id, dag, arrival_time);
    job.type = history_.TypeOf(dag->name());
    pending_.Insert(id);  // a fresh AM always has pending root tasks
    if (options_.mode == SchedulerMode::kHistory) {
      // Two-tier admission ask: first the whole DAG's maximum concurrent
      // need (Algorithm 1's selection quantum), so a class that can carry
      // the job end-to-end is preferred when one exists. If nothing covers
      // that, TryScheduleJob's awaiting branch immediately retries sized to
      // the first runnable wave -- admitting the job piecemeal beats
      // holding it for a class large enough for a width it may only reach
      // an hour from now.
      job.awaiting_classes = !SelectClasses(job, job.am->dag().MaxConcurrentCores());
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
  // so the values are cached per slot, and with them each class's headroom
  // cores per job type: the RM serves the class utilization the headroom
  // reads from a per-slot cache too.
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
        if (options_.faults != nullptr &&
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
    for (std::vector<int>& cores : class_headroom_cores_) {
      cores.assign(snapshot_.classes.size(), 0);
    }
    for (size_t c = 0; c < snapshot_.classes.size(); ++c) {
      const ClassState state = ClassStateAt(c, now);
      for (int type = 0; type < kNumJobTypes; ++type) {
        class_headroom_cores_[static_cast<size_t>(type)][c] = ClassSelector::HeadroomCores(
            selector_->Headroom(static_cast<JobType>(type), snapshot_.classes[c], state),
            snapshot_.classes[c]);
      }
    }
  }

  // Algorithm 1's view of class `c` at `now`: live utilization and
  // available cores from the RM, forecasts from the per-slot cache.
  ClassState ClassStateAt(size_t c, double now) const {
    const UtilizationClass& cls = snapshot_.classes[c];
    ClassState state;
    state.class_id = cls.id;
    state.current_utilization = rm_.ClassCurrentUtilization(cls.id, now);
    state.available_cores = rm_.ClassAvailableCores(cls.id, now);
    state.forecast_utilization = class_forecast_util_[c];
    state.long_forecast_utilization = class_long_forecast_util_[c];
    return state;
  }

  // Cores the job's currently runnable (unlocked, unscheduled) tasks need
  // concurrently -- the demand a mid-flight class re-selection must cover.
  // The whole-DAG MaxConcurrentCores is only the right ask at arrival;
  // holding a half-done job to it would reject class sets that comfortably
  // host the remaining wave.
  int RunnableDemandCores(const ActiveJob& job) const {
    return std::max(1, job.am->RunnableCores());
  }

  // Algorithm 1 front-end: re-picks the job's class set for an ask of
  // `required_cores`. Returns false, and leaves the job's classes as they
  // were, when no class set covers the ask. In a saturated run nearly every
  // retry asks in vain; the exact emptiness test answers those from the
  // per-slot headroom cores and the RM's running class aggregates, builds
  // no class states and, like an empty Select, draws no RNG.
  bool SelectClasses(ActiveJob& job, int required_cores) {
    const double now = now_;
    RefreshClassForecasts(now);
    for (size_t c = 0; c < snapshot_.classes.size(); ++c) {
      class_available_cores_[c] = rm_.ClassAvailableCores(snapshot_.classes[c].id, now);
    }
    if (selector_->SelectsNothing(job.type, required_cores, class_available_cores_,
                                  class_headroom_cores_[static_cast<size_t>(job.type)])) {
      return false;
    }
    std::vector<ClassState> states;
    states.reserve(snapshot_.classes.size());
    for (size_t c = 0; c < snapshot_.classes.size(); ++c) {
      states.push_back(ClassStateAt(c, now));
    }
    ClassSelection selection = selector_->Select(job.type, required_cores, states, rng_);
    if (selection.empty()) {
      return false;
    }
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
    job.allowed_classes = std::move(selection.class_ids);
    return true;
  }

  void TryScheduleJob(JobId id) {
    ActiveJob& job = Job(id);
    if (!job.am) {
      return;
    }
    if (job.awaiting_classes) {
      // An empty class pick is not a 120-second sentence. This fires both
      // straight from arrival -- the whole-DAG ask found no class, so fall
      // back to admitting the first runnable wave -- and from retry sweeps,
      // where resources freed by the triggering completion / kill may make
      // a class eligible right now, exactly like a PT job grabbing freed
      // cores in the same sweep. Selection consumes RNG only when it
      // succeeds, so a still-empty attempt leaves every stream untouched.
      if (!SelectClasses(job, RunnableDemandCores(job))) {
        return;  // still nothing anywhere (stays in pending_)
      }
      job.awaiting_classes = false;
    }
    const double now = now_;
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
        if (ClassSchedulingDiagnostics* diag = DiagnosticsForServer(container.server)) {
          ++diag->containers;
          diag->lease_seconds += stage.task_seconds;
        }
        Schedule(now + stage.task_seconds, EventKind::kTaskCompletion, container.id);
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
      SelectClasses(job, RunnableDemandCores(job));
    }
    // Keep the pending queue exact: a job is queued iff it still has
    // unscheduled tasks in unlocked stages. TryScheduleJob only ever
    // *shrinks* a job's pending demand, so during a RetryPendingJobs sweep
    // this can erase the visited job but never inserts another.
    if (job.am->PendingTasks() > 0) {
      pending_.Insert(id);
    } else {
      pending_.Erase(id);
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
                                  task.container.start_time, now_);
    }

    ActiveJob& job = Job(task.job);
    bool finished = job.am->OnTaskComplete(task.stage, now_);
    if (finished) {
      FinishJob(task.job);
    } else {
      TryScheduleJob(task.job);  // newly unlocked stages
    }
    // Freed resources may unblock other queued jobs.
    RetryPendingJobs();
  }

  void FinishJob(JobId id) {
    ActiveJob& job = Job(id);
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
    pending_.Erase(id);  // a finished job has no pending tasks, but be exact
    job = ActiveJob{};   // frees the AM and the class list; the slot stays
  }

  void RetryPendingJobs() {
    cluster_full_hint_ = false;
    // Arrival order (FIFO fairness; job ids are issued in arrival order, so
    // the ascending id scan visits oldest-first). Only jobs that actually
    // have pending demand are visited -- completed and fully scheduled jobs
    // never enter the sweep. TryScheduleJob may erase the visited id (its
    // demand satisfied) and touches no other; the scan resumes past it.
    // Stop early once an allocation attempt reports a full cluster -- all
    // requests share one container shape here.
    for (JobId id = pending_.Next(0); id >= 0; id = pending_.Next(id + 1)) {
      TryScheduleJob(id);
      if (cluster_full_hint_) {
        break;
      }
    }
  }

  // Returns a killed container's task to its job: the task leaves running_,
  // its energy interval closes at `now`, the job re-queues it and the kill
  // counts toward the server's latency window. False when the container is
  // no longer running.
  bool ReturnKilledTask(const Container& container, double now) {
    auto it = running_.find(container.id);
    if (it == running_.end()) {
      return false;
    }
    const RunningTask task = it->second;
    running_.erase(it);
    if (accountant_) {
      accountant_->OnContainerEnd(container.resources.cores, container.start_time, now);
    }
    Job(task.job).am->OnTaskKilled(task.stage);
    pending_.Insert(task.job);  // the killed task returns to the pending pool
    if (options_.collect_latency) {
      ++window_kills_[static_cast<size_t>(container.server)];
    }
    return true;
  }

  // Applies every server transition due by `now` (tick granularity: the
  // coarsened NM-heartbeat cadence at which the RM would observe a lost
  // server in the real system). Containers on a failing server are evicted
  // and returned to their AMs exactly like reserve kills -- same accounting
  // path -- except they are attributed to fault_evictions, not to the
  // pattern / class kill diagnostics the ranking-weight ablation reads.
  void ProcessFaultTransitions(double now) {
    const std::vector<FaultTransition>& transitions = options_.faults->server_transitions;
    while (fault_cursor_ < transitions.size() && transitions[fault_cursor_].time <= now) {
      const FaultTransition& transition = transitions[fault_cursor_++];
      for (const Container& container : rm_.SetServerDown(transition.id, transition.begins)) {
        if (ReturnKilledTask(container, now)) {
          ++fault_evictions_;
        }
      }
    }
  }

  void Tick() {
    const double now = now_;
    // Fault transitions land first: a server that died during the elapsed
    // interval is gone before reserves are enforced or retries placed on it.
    if (options_.faults != nullptr) {
      ProcessFaultTransitions(now);
    }
    // Telemetry-blackout degradation: when the day-ago window RM-H placement
    // reads (ForecastStartSlot .. +2*kMinForecastWindowSeconds, the long-job
    // horizon) overlaps a blackout, history weighting is suspended and H
    // places on live availability only -- Algorithm 1's graceful fallback.
    if (options_.faults != nullptr && options_.mode == SchedulerMode::kHistory) {
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
    for (const Container& container : rm_.EnforceReserves(now)) {
      if (!ReturnKilledTask(container, now)) {
        continue;
      }
      if (ClassSchedulingDiagnostics* diag = DiagnosticsForServer(container.server)) {
        ++diag->kills;
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
      Schedule(now + kTickSeconds, EventKind::kTick);
    }
  }

  void LatencyWindow() {
    const double now = now_;
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
      const int kills = window_kills_[s];
      int interfering = static_cast<int>(
          interfering_base + (static_cast<int64_t>(s) < interfering_remainder ? 1 : 0));
      double p99 = latency_model_.ServerP99(primary_load, node.OvercommitCores(now),
                                            node.TotalUtilization(now), kills, interfering,
                                            rng_);
      window.Add(p99);
    }
    result_.p99_series_ms.push_back(window.mean());
    std::fill(window_kills_.begin(), window_kills_.end(), 0);
    window_interfering_ = 0;
    if (now + kLatencyWindowSeconds <= options_.horizon_seconds) {
      Schedule(now + kLatencyWindowSeconds, EventKind::kLatencyWindow);
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
  std::priority_queue<Event, std::vector<Event>, FiresLater> events_;
  uint64_t next_sequence_ = 0;
  double now_ = 0.0;  // time of the event being handled
  ResourceManager rm_;
  JobHistory history_;
  ServiceLatencyModel latency_model_;
  std::vector<JobDag> suite_;
  ClusteringSnapshot snapshot_;
  std::vector<int> server_class_;  // H mode: server -> class id
  // Per-class history forecasts (see RefreshClassForecasts), cached per
  // telemetry slot; -1 marks classes without usable traces.
  std::vector<double> class_forecast_util_;
  std::vector<double> class_long_forecast_util_;
  // ClassSelector::HeadroomCores per [job type][class], cached with the
  // forecasts; and the classes' available cores, refilled for each ask.
  std::array<std::vector<int>, kNumJobTypes> class_headroom_cores_;
  std::vector<int> class_available_cores_;
  int64_t class_forecast_slot_ = std::numeric_limits<int64_t>::min();
  std::unique_ptr<ClassSelector> selector_;
  std::unique_ptr<NameNode> name_node_;
  // Jobs indexed by id; ids are issued densely from 1 in arrival order. A
  // finished job's slot stays, emptied. The vector grows only in AdmitJob,
  // so an ActiveJob reference held anywhere else stays valid.
  std::vector<ActiveJob> jobs_;
  // Jobs with unscheduled tasks in unlocked stages, scanned in ascending id
  // (arrival order): the retry queue. Woken by resource-release (task
  // completion) and kill events; membership is maintained exactly at every
  // transition, so a retry sweep touches only jobs that can actually make
  // progress.
  DenseIdSet pending_;
  std::unordered_map<ContainerId, RunningTask> running_;
  // Power subsystem: the energy / cost ledger (power_accounting runs only)
  // and the deferral valley curve, cached per telemetry slot.
  std::unique_ptr<EnergyAccountant> accountant_;
  std::vector<double> defer_curve_;
  int64_t defer_curve_slot_ = std::numeric_limits<int64_t>::min();
  int64_t deferred_jobs_ = 0;
  double deferred_seconds_ = 0.0;
  // Fault subsystem: the next unapplied entry of the timeline's
  // server_transitions.
  size_t fault_cursor_ = 0;
  int64_t fault_evictions_ = 0;
  double forecast_degraded_seconds_ = 0.0;
  // Kills per server in the current latency window (collect_latency only).
  std::vector<int> window_kills_;
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

}  // namespace harvest
