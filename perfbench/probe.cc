// perfbench_probe: the benchmark's view into the simulator's layers.
//
// It configures a scenario exactly as harvest_sim does (preset, --set
// overrides, --scale) and then calls the layers' public entry points itself,
// so the benchmark can time each layer from outside the program:
//
//   perfbench_probe fleet --scenario=NAME [--set K=V]... [--scale=F]
//                         [--seed=S] [--dump-dir=DIR]
//       With --dump-dir, first builds every datacenter's fleet
//       (RunFleetBuildStage) once, untimed, exporting it to DIR/<label>.trace.
//       Then times repeated builds of all the fleets (at least kMinBuilds,
//       and for at least kMinBuildSeconds). Prints one JSON object: for each
//       timed build the wall seconds of every DC's fleet, and the per-DC
//       server and reimage counts. The runner exports the workload's fleet with the first call
//       and times set-up in calls between its harvest_sim runs.
//
//   perfbench_probe trace --scenario=NAME [--set K=V]... [--scale=F]
//                         --seed=S [--threads=N] --out=PATH
//       Replays the per-datacenter stage sequence of RunDatacenterStages with
//       a span around every layer call (fleet build, clustering, utilization
//       rescale, the PT and H co-simulations, placement audit, storage
//       timeline and grid cells, JSON rendering). Spans live in memory and
//       are written to PATH at exit, together with deterministic work
//       counters and the per-DC simulated statistics the runner cross-checks
//       against an untraced harvest_sim run.
//
// Exit status: 0 on success, 2 on a usage error.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/driver/json_writer.h"
#include "src/driver/pipeline.h"
#include "src/driver/registry.h"
#include "src/driver/result_json.h"
#include "src/driver/scenario.h"
#include "src/driver/stage.h"
#include "src/experiments/cluster_scaling.h"
#include "src/experiments/scheduling_sim.h"
#include "src/experiments/storage_cosim.h"
#include "src/jobs/tpcds.h"
#include "src/signal/pattern.h"
#include "src/trace/reimage.h"
#include "src/util/executor.h"

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Resident set size of this process right now (/proc/self/statm), bytes.
int64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  int64_t size_pages = 0;
  int64_t resident_pages = 0;
  if (!(statm >> size_pages >> resident_pages)) {
    return 0;
  }
  return resident_pages * static_cast<int64_t>(sysconf(_SC_PAGESIZE));
}

// --- Spans -----------------------------------------------------------------

struct Span {
  std::string name;
  int id = 0;
  int parent = -1;  // -1 for the root
  int dc = -1;      // datacenter index, -1 when the span is not per-DC
  double start = 0.0;
  double end = 0.0;
};

// Thread-safe in-memory span log. Times are seconds since construction.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  int Begin(std::string name, int parent, int dc) {
    const double now = SecondsSince(origin_);
    std::lock_guard<std::mutex> lock(mu_);
    Span span;
    span.name = std::move(name);
    span.id = static_cast<int>(spans_.size());
    span.parent = parent;
    span.dc = dc;
    span.start = now;
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }

  void End(int id) {
    const double now = SecondsSince(origin_);
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end = now;
  }

  std::vector<Span> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, int parent, int dc)
      : tracer_(tracer), id_(tracer.Begin(std::move(name), parent, dc)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer& tracer_;
  const int id_;
};

// --- Command line ------------------------------------------------------------

struct ProbeArgs {
  std::string mode;
  std::string scenario;
  std::vector<std::string> overrides;
  double scale = 1.0;
  uint64_t seed = 42;
  std::string dump_dir;
  int threads = 1;
  std::string out_path;
};

[[noreturn]] void UsageError(const std::string& message) {
  std::fprintf(stderr, "perfbench_probe: %s\n", message.c_str());
  std::exit(2);
}

// Accepts the `--name=value` and `--name value` spellings, like harvest_sim.
bool TakeValue(int argc, char** argv, int& i, std::string_view name, std::string* value) {
  const char* arg = argv[i];
  const size_t len = name.size();
  if (std::strncmp(arg, name.data(), len) != 0) {
    return false;
  }
  if (arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  if (arg[len] != '\0') {
    return false;
  }
  if (i + 1 >= argc) {
    UsageError(std::string("missing value for ") + arg);
  }
  *value = argv[++i];
  return true;
}

uint64_t ParseSeed(const std::string& text) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos ||
      text.size() > 19) {
    UsageError("seed must be a non-negative integer below 1e19, got '" + text + "'");
  }
  return std::strtoull(text.c_str(), nullptr, 10);
}

ProbeArgs ParseArgs(int argc, char** argv) {
  if (argc < 2) {
    UsageError("usage: perfbench_probe fleet|trace --scenario=NAME ...");
  }
  ProbeArgs args;
  args.mode = argv[1];
  if (args.mode != "fleet" && args.mode != "trace") {
    UsageError("unknown mode '" + args.mode + "'");
  }
  for (int i = 2; i < argc; ++i) {
    std::string value;
    if (TakeValue(argc, argv, i, "--scenario", &value)) {
      args.scenario = value;
    } else if (TakeValue(argc, argv, i, "--set", &value)) {
      args.overrides.push_back(value);
    } else if (TakeValue(argc, argv, i, "--scale", &value)) {
      args.scale = std::strtod(value.c_str(), nullptr);
      if (!(args.scale > 0.0)) {
        UsageError("--scale must be positive");
      }
    } else if (TakeValue(argc, argv, i, "--seed", &value)) {
      args.seed = ParseSeed(value);
    } else if (TakeValue(argc, argv, i, "--dump-dir", &value)) {
      args.dump_dir = value;
    } else if (TakeValue(argc, argv, i, "--threads", &value)) {
      args.threads = std::atoi(value.c_str());
    } else if (TakeValue(argc, argv, i, "--out", &value)) {
      args.out_path = value;
    } else {
      UsageError(std::string("unknown argument '") + argv[i] + "'");
    }
  }
  if (args.scenario.empty()) {
    UsageError("--scenario is required");
  }
  if (args.threads < 1 || args.threads > 64) {
    UsageError("--threads must be in [1, 64]");
  }
  if (args.mode == "trace" && args.out_path.empty()) {
    UsageError("trace mode needs --out=PATH");
  }
  return args;
}

// The run's config, derived the way harvest_sim derives it.
harvest::ScenarioConfig ResolveConfig(const ProbeArgs& args) {
  const harvest::ScenarioConfig* preset = harvest::FindScenario(args.scenario);
  if (preset == nullptr) {
    UsageError("unknown scenario '" + args.scenario + "'");
  }
  harvest::ScenarioConfig config = *preset;
  for (const std::string& text : args.overrides) {
    std::string key;
    std::string value;
    std::string error;
    if (!harvest::SplitOverride(text, &key, &value, &error) ||
        !harvest::ApplyScenarioOverride(config, key, value, &error)) {
      UsageError(error);
    }
  }
  const std::string error = harvest::ValidateScenario(config);
  if (!error.empty()) {
    UsageError(error);
  }
  // The probe mirrors the stages the benchmark's workloads run; the power,
  // fault and availability stages are not among them.
  if (config.power_accounting || !config.fault_plan.empty() || config.run_availability) {
    UsageError("the probe does not trace power_accounting, fault_plan or run_availability");
  }
  return harvest::ScaledScenario(config, args.scale);
}

harvest::DcContext MakeContext(const harvest::ScenarioConfig& config,
                               const std::vector<std::string>& labels, uint64_t seed, int i) {
  harvest::DcContext ctx;
  ctx.config = &config;
  ctx.label = labels[static_cast<size_t>(i)];
  ctx.dc_index = i;
  ctx.dc_seed = harvest::DeriveDcSeed(seed, i);
  return ctx;
}

// --- fleet mode ----------------------------------------------------------------

// One fleet-mode call times at least this many builds and this long.
constexpr int kMinBuilds = 3;
constexpr double kMinBuildSeconds = 1.0;

int RunFleetMode(const ProbeArgs& args) {
  const harvest::ScenarioConfig config = ResolveConfig(args);
  const std::vector<std::string> labels = harvest::ScenarioLabels(config);
  if (!args.dump_dir.empty()) {
    for (size_t i = 0; i < labels.size(); ++i) {
      harvest::DcContext ctx = MakeContext(config, labels, args.seed, static_cast<int>(i));
      ctx.dump_traces_dir = args.dump_dir;
      harvest::RunFleetBuildStage(ctx);
    }
  }
  harvest::JsonWriter json;
  json.BeginObject();
  json.Field("seed", args.seed);
  json.Key("build_s").BeginArray();
  // The fleets stay alive until the last one is built and are destroyed
  // before the next build starts: set-up is the build, not the teardown.
  // Each DC's build is timed on its own.
  std::vector<harvest::FleetBuildOutput> fleets;
  const Clock::time_point begin = Clock::now();
  for (int rep = 0; rep < kMinBuilds || SecondsSince(begin) < kMinBuildSeconds; ++rep) {
    fleets.clear();
    json.BeginArray();
    for (size_t i = 0; i < labels.size(); ++i) {
      const Clock::time_point start = Clock::now();
      fleets.push_back(harvest::RunFleetBuildStage(
          MakeContext(config, labels, args.seed, static_cast<int>(i))));
      json.Value(SecondsSince(start));
    }
    json.EndArray();
  }
  json.EndArray();
  json.Key("datacenters").BeginArray();
  for (size_t i = 0; i < labels.size(); ++i) {
    json.BeginObject();
    json.Field("name", labels[i]);
    json.Field("servers", fleets[i].stats.servers);
    json.Field("reimage_events", fleets[i].stats.reimage_events);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  const std::string text = json.TakeString();
  std::fwrite(text.data(), 1, text.size(), stdout);
  return std::fflush(stdout) == 0 ? 0 : 1;
}

// --- trace mode ----------------------------------------------------------------

// Deterministic work counters of one datacenter (summed by the runner).
struct DcCounters {
  int64_t servers = 0;
  int64_t distinct_traces = 0;
  int64_t rescale_calls = 0;
  int64_t rescale_samples = 0;
  int64_t rescale_rss_delta_bytes = 0;
  int64_t classes = 0;
  int64_t containers = 0;
  int64_t kills = 0;
  int64_t jobs_completed = 0;
  int64_t storage_reimages = 0;
  int64_t storage_rereplications = 0;
  int64_t storage_accesses = 0;
  int64_t storage_failed_accesses = 0;
  int64_t storage_replicas_destroyed = 0;
};

struct DcTrace {
  harvest::DatacenterResult result;
  DcCounters counters;
};

harvest::SchedulingRunResult FlattenRun(const harvest::SchedulingSimResult& sim) {
  harvest::SchedulingRunResult run;
  run.jobs_arrived = sim.jobs_arrived;
  run.jobs_completed = sim.jobs_completed;
  run.average_execution_seconds = sim.average_execution_seconds;
  run.total_kills = sim.total_kills;
  run.average_total_utilization = sim.average_total_utilization;
  run.average_primary_utilization = sim.average_primary_utilization;
  run.has_storage = sim.storage.accesses > 0;
  if (run.has_storage) {
    run.failed_access_fraction = sim.storage.FailedAccessFraction();
  }
  for (int64_t count : sim.containers_by_pattern) {
    run.containers += count;
  }
  return run;
}

// RunSchedulingStage, split at its layer calls: the utilization rescale and
// the PT / H co-simulations (run as two tasks when the DC has the threads).
harvest::SchedulingStageResult TraceScheduling(const harvest::DcContext& ctx,
                                               const harvest::Cluster& cluster, Tracer& tracer,
                                               int parent, DcCounters& counters) {
  const harvest::ScenarioConfig& config = *ctx.config;
  const harvest::Cluster* sim_cluster = &cluster;
  harvest::Cluster rescaled;
  if (config.scheduling_target_utilization > 0.0) {
    ScopedSpan span(tracer, "rescale", parent, ctx.dc_index);
    const int64_t rss_before = ResidentBytes();
    rescaled = harvest::ScaleClusterUtilization(cluster, harvest::ScalingMethod::kRoot,
                                                config.scheduling_target_utilization);
    counters.rescale_rss_delta_bytes =
        std::max(counters.rescale_rss_delta_bytes, ResidentBytes() - rss_before);
    ++counters.rescale_calls;
    for (const harvest::Server& server : cluster.servers()) {
      counters.rescale_samples += static_cast<int64_t>(server.utilization->size());
    }
    sim_cluster = &rescaled;
  }

  harvest::SchedulingSimOptions options;
  options.clustering = config.clustering;
  options.storage = config.scheduling_storage;
  options.horizon_seconds = config.scheduling_horizon_seconds;
  options.mean_interarrival_seconds = config.mean_interarrival_seconds;
  options.job_duration_factor = config.job_duration_factor;
  options.thresholds.short_below *= config.job_duration_factor;
  options.thresholds.long_above *= config.job_duration_factor;
  options.seed = ctx.StreamSeed("scheduling");
  options.rm_shards = config.rm_shards;
  options.nn_shards = config.nn_shards;
  options.dc_index = ctx.dc_index;
  options.slot_threads = std::max(1, ctx.task_threads / 2);

  const harvest::SchedulerMode modes[2] = {harvest::SchedulerMode::kPrimaryAware,
                                           harvest::SchedulerMode::kHistory};
  const char* names[2] = {"sched.pt", "sched.h"};
  harvest::SchedulingSimResult runs[2];
  {
    ScopedSpan cosim(tracer, "sched.cosim", parent, ctx.dc_index);
    harvest::ParallelForIndex(std::min(ctx.task_threads, 2), 2, [&](int i) {
      ScopedSpan span(tracer, names[i], cosim.id(), ctx.dc_index);
      harvest::SchedulingSimOptions task_options = options;
      task_options.mode = modes[i];
      runs[i] = harvest::RunSchedulingSimulation(*sim_cluster, *ctx.suite, task_options);
    });
  }

  harvest::SchedulingStageResult result;
  result.horizon_seconds = options.horizon_seconds;
  result.mean_interarrival_seconds = options.mean_interarrival_seconds;
  result.target_utilization = config.scheduling_target_utilization;
  result.storage_variant = harvest::StorageVariantName(config.scheduling_storage);
  result.primary_aware = FlattenRun(runs[0]);
  result.history = FlattenRun(runs[1]);
  const double baseline_seconds = runs[0].average_execution_seconds;
  result.history_improvement_percent =
      baseline_seconds > 0.0
          ? 100.0 * (baseline_seconds - runs[1].average_execution_seconds) / baseline_seconds
          : 0.0;
  for (const harvest::ClassSchedulingDiagnostics& diag : runs[1].class_diagnostics) {
    harvest::SchedulingClassResult entry;
    entry.class_id = diag.class_id;
    entry.label = diag.label;
    entry.pattern = harvest::PatternName(diag.pattern);
    entry.containers = diag.containers;
    entry.kills = diag.kills;
    entry.total_lease_seconds = diag.lease_seconds;
    entry.mean_lease_seconds = diag.MeanLeaseSeconds();
    entry.selections = diag.selections;
    entry.rank_weight_contribution = diag.rank_weight_contribution;
    result.class_diagnostics.push_back(std::move(entry));
  }
  for (const harvest::SchedulingRunResult* run : {&result.primary_aware, &result.history}) {
    counters.containers += run->containers;
    counters.kills += run->total_kills;
    counters.jobs_completed += run->jobs_completed;
  }
  return result;
}

// RunDurabilityStage, split at its layer calls: the shared reimage/access
// timeline, then one span per grid cell.
harvest::DurabilityStageResult TraceDurability(const harvest::DcContext& ctx,
                                               const harvest::Cluster& cluster, Tracer& tracer,
                                               int parent, DcCounters& counters) {
  const harvest::ScenarioConfig& config = *ctx.config;
  const uint64_t base_seed = ctx.StreamSeed("durability");
  harvest::StorageTimeline timeline;
  {
    ScopedSpan span(tracer, "storage.timeline", parent, ctx.dc_index);
    harvest::StorageTimelineOptions timeline_options;
    timeline_options.reimage_horizon_seconds =
        static_cast<double>(config.reimage_months) * harvest::kSecondsPerMonth;
    timeline_options.access_rate_per_hour = config.access_rate;
    timeline_options.access_seed = harvest::DerivedStreamSeed(base_seed, "accesses");
    timeline = harvest::BuildStorageTimeline(cluster, timeline_options);
  }

  harvest::DurabilityStageResult result;
  result.replications = config.replications;
  result.access_rate = config.access_rate;
  for (harvest::PlacementKind kind : config.placement_kinds) {
    result.placement_kinds.emplace_back(harvest::PlacementKindName(kind));
  }
  const int kinds = static_cast<int>(config.placement_kinds.size());
  const int cells = kinds * static_cast<int>(config.replications.size());
  result.cells.resize(static_cast<size_t>(cells));
  std::vector<harvest::StorageStats> stats(static_cast<size_t>(cells));
  {
    ScopedSpan grid(tracer, "storage.cells", parent, ctx.dc_index);
    harvest::ParallelForIndex(std::min(ctx.task_threads, cells), cells, [&](int i) {
      ScopedSpan span(tracer, "storage.cell", grid.id(), ctx.dc_index);
      const harvest::PlacementKind kind = config.placement_kinds[static_cast<size_t>(i % kinds)];
      const int replication = config.replications[static_cast<size_t>(i / kinds)];
      const std::string replication_tag = "r" + std::to_string(replication);
      harvest::StorageCosimOptions options;
      options.placement = kind;
      options.replication = replication;
      options.num_blocks = config.storage_blocks;
      options.nn_shards = config.nn_shards;
      options.writer_seed = harvest::DerivedStreamSeed(base_seed, "writers-" + replication_tag);
      options.policy_seed = harvest::DerivedStreamSeed(
          base_seed, std::string(harvest::PlacementKindName(kind)) + "-" + replication_tag);
      const harvest::StorageCosimResult run = harvest::RunStorageCosim(cluster, timeline, options);

      harvest::DurabilityCellResult& cell = result.cells[static_cast<size_t>(i)];
      cell.placement = harvest::PlacementKindName(kind);
      cell.replication = replication;
      cell.blocks = config.storage_blocks;
      cell.lost_percent = run.lost_percent;
      cell.reimage_events = run.reimage_events;
      cell.replicas_destroyed = run.stats.replicas_destroyed;
      cell.rereplications_completed = run.stats.rereplications_completed;
      cell.under_replicated_blocks = run.under_replicated_blocks;
      cell.accesses = run.stats.accesses;
      cell.failed_percent = run.failed_access_percent;
      stats[static_cast<size_t>(i)] = run.stats;
    });
  }
  for (size_t i = 0; i < result.cells.size(); ++i) {
    counters.storage_reimages += result.cells[i].reimage_events;
    counters.storage_rereplications += stats[i].rereplications_completed;
    counters.storage_accesses += stats[i].accesses;
    counters.storage_failed_accesses += stats[i].failed_accesses;
    counters.storage_replicas_destroyed += stats[i].replicas_destroyed;
  }
  return result;
}

// RunDatacenterStages with a span around every stage. Every span is a child
// of the run's root span, so the root's self time is what no layer claims.
DcTrace TraceDatacenter(const harvest::DcContext& ctx, Tracer& tracer, int root) {
  const harvest::ScenarioConfig& config = *ctx.config;
  const int dc = ctx.dc_index;
  DcTrace trace;
  harvest::DatacenterResult& result = trace.result;
  DcCounters& counters = trace.counters;
  result.name = ctx.label;

  harvest::FleetBuildOutput fleet;
  {
    ScopedSpan span(tracer, "fleet.build", root, dc);
    fleet = harvest::RunFleetBuildStage(ctx);
  }
  result.fleet = fleet.stats;
  counters.servers = static_cast<int64_t>(fleet.cluster.num_servers());
  std::set<const harvest::UtilizationTrace*> distinct;
  for (const harvest::Server& server : fleet.cluster.servers()) {
    distinct.insert(server.utilization.get());
  }
  counters.distinct_traces = static_cast<int64_t>(distinct.size());

  {
    ScopedSpan span(tracer, "clustering", root, dc);
    result.clustering = harvest::RunClusteringStage(ctx, fleet.cluster);
  }
  counters.classes = static_cast<int64_t>(result.clustering.classes.size());

  {
    ScopedSpan span(tracer, "sched.stage", root, dc);
    if (config.run_scheduling) {
      result.has_scheduling = true;
      result.scheduling = TraceScheduling(ctx, fleet.cluster, tracer, span.id(), counters);
    }
  }
  {
    ScopedSpan span(tracer, "placement.audit", root, dc);
    result.placement = harvest::RunPlacementAuditStage(ctx, fleet.cluster);
  }
  {
    ScopedSpan span(tracer, "storage.durability", root, dc);
    if (config.run_durability) {
      result.has_durability = true;
      result.durability = TraceDurability(ctx, fleet.cluster, tracer, span.id(), counters);
    }
  }
  return trace;
}

void WriteCounters(harvest::JsonWriter& json, const DcCounters& c) {
  json.Key("counters").BeginObject();
  json.Field("servers", c.servers);
  json.Field("distinct_traces", c.distinct_traces);
  json.Field("rescale_calls", c.rescale_calls);
  json.Field("rescale_samples", c.rescale_samples);
  json.Field("rescale_rss_delta_bytes", c.rescale_rss_delta_bytes);
  json.Field("classes", c.classes);
  json.Field("containers", c.containers);
  json.Field("kills", c.kills);
  json.Field("jobs_completed", c.jobs_completed);
  json.Field("storage_reimages", c.storage_reimages);
  json.Field("storage_rereplications", c.storage_rereplications);
  json.Field("storage_accesses", c.storage_accesses);
  json.Field("storage_failed_accesses", c.storage_failed_accesses);
  json.Field("storage_replicas_destroyed", c.storage_replicas_destroyed);
  json.EndObject();
}

// The simulated statistics the runner compares with harvest_sim's JSON.
void WriteCrossCheck(harvest::JsonWriter& json, const harvest::DatacenterResult& dc) {
  json.Key("stats").BeginObject();
  json.Field("name", dc.name);
  json.Field("servers", dc.fleet.servers);
  if (dc.has_scheduling) {
    json.Field("pt_jobs_completed", dc.scheduling.primary_aware.jobs_completed);
    json.Field("h_jobs_completed", dc.scheduling.history.jobs_completed);
    json.Field("pt_total_kills", dc.scheduling.primary_aware.total_kills);
    json.Field("h_total_kills", dc.scheduling.history.total_kills);
  }
  json.Key("cells").BeginArray();
  for (const harvest::DurabilityCellResult& cell : dc.durability.cells) {
    json.BeginObject();
    json.Field("lost_percent", cell.lost_percent);
    json.Field("rereplications_completed", cell.rereplications_completed);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
}

int RunTraceMode(const ProbeArgs& args) {
  const harvest::ScenarioConfig config = ResolveConfig(args);
  const uint64_t seed = args.seed;
  const std::vector<std::string> labels = harvest::ScenarioLabels(config);
  const int dc_count = static_cast<int>(labels.size());
  const int task_threads = std::max(1, args.threads / std::max(1, dc_count));

  Tracer tracer;
  std::vector<DcTrace> dcs(labels.size());
  size_t rendered_bytes = 0;
  {
    ScopedSpan root(tracer, "run", -1, -1);
    std::vector<harvest::JobDag> suite;
    if (config.run_scheduling) {
      ScopedSpan span(tracer, "suite", root.id(), -1);
      suite = harvest::BuildTpcDsSuite(harvest::DerivedStreamSeed(seed, "suite"));
    }
    harvest::ParallelForIndex(args.threads, dc_count, [&](int i) {
      harvest::DcContext ctx = MakeContext(config, labels, seed, i);
      ctx.suite = &suite;
      ctx.task_threads = task_threads;
      dcs[static_cast<size_t>(i)] = TraceDatacenter(ctx, tracer, root.id());
    });
    ScopedSpan span(tracer, "driver.render", root.id(), -1);
    harvest::ScenarioResult result;
    result.scenario = config.name;
    result.description = config.description;
    result.seed = seed;
    result.scale = args.scale;
    result.trace_source = harvest::MakeTraceSource(config).Provenance();
    for (const DcTrace& dc : dcs) {
      result.datacenters.push_back(dc.result);
    }
    rendered_bytes = harvest::RenderScenarioJson(result).size();
  }

  harvest::JsonWriter json;
  json.BeginObject();
  json.Field("seed", seed);
  json.Field("threads", args.threads);
  json.Field("rendered_bytes", rendered_bytes);
  json.Key("spans").BeginArray();
  for (const Span& span : tracer.Snapshot()) {
    json.BeginObject();
    json.Field("name", span.name);
    json.Field("id", span.id);
    json.Field("parent", span.parent);
    json.Field("dc", span.dc);
    json.Field("start", span.start);
    json.Field("end", span.end);
    json.EndObject();
  }
  json.EndArray();
  json.Key("datacenters").BeginArray();
  for (const DcTrace& dc : dcs) {
    json.BeginObject();
    WriteCounters(json, dc.counters);
    WriteCrossCheck(json, dc.result);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  const std::string text = json.TakeString();
  std::FILE* file = std::fopen(args.out_path.c_str(), "wb");
  if (file == nullptr) {
    std::fprintf(stderr, "perfbench_probe: cannot write '%s'\n", args.out_path.c_str());
    return 1;
  }
  const size_t written = std::fwrite(text.data(), 1, text.size(), file);
  if (std::fclose(file) != 0 || written != text.size()) {
    std::fprintf(stderr, "perfbench_probe: short write to '%s'\n", args.out_path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const ProbeArgs args = ParseArgs(argc, argv);
  return args.mode == "fleet" ? RunFleetMode(args) : RunTraceMode(args);
}
