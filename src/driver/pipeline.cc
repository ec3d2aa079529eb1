#include "src/driver/pipeline.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "src/util/executor.h"
#include "src/driver/registry.h"
#include "src/driver/result_json.h"
#include "src/fault/fault_plan.h"
#include "src/jobs/tpcds.h"
#include "src/trace/trace_source.h"
#include "src/util/logging.h"

namespace harvest {
namespace {

// Runs one stage and appends its name and wall-clock seconds to the DC's
// DcStageTiming.
template <typename Fn>
auto Timed(DcStageTiming& timing, const char* stage, Fn&& fn) {
  auto start = std::chrono::steady_clock::now();
  auto result = fn();
  timing.stages.emplace_back(
      stage, std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count());
  return result;
}

// Human-readable sidecar naming the run a trace directory was captured
// from: enough to re-derive or re-capture it. Written after the export so
// it only ever describes files that exist.
void WriteTraceManifest(const std::string& dir, const ScenarioConfig& config,
                        const ScenarioRunOptions& options,
                        const std::vector<std::string>& labels,
                        const ScenarioResult& result) {
  const std::string path = dir + "/MANIFEST.txt";
  std::FILE* file = std::fopen(path.c_str(), "wb");
  HARVEST_CHECK(file != nullptr) << "cannot write trace manifest '" << path << "'";
  std::string text = "harvest_sim trace export\nscenario: " + config.name +
                     "\nseed: " + std::to_string(options.seed) +
                     "\nscale: " + std::to_string(options.scale) + "\n";
  for (const std::string& override_text : options.overrides) {
    text += "override: " + override_text + "\n";
  }
  // The active fault plan, canonicalized: replaying this directory with a
  // different plan is rejected (ValidateScenario), since the recorded fleet
  // and the goldens derived from it assume these exact injected events.
  text += "fault_plan: " + CanonicalFaultPlan(config.fault_plan) + "\n";
  for (size_t i = 0; i < labels.size(); ++i) {
    text += "trace: " + TraceSource::TraceFileName(labels[i]) + "\n";
    // Self-describing fleet line: size and shape mix of the recorded file,
    // so a reader need not parse the binary trace to know what it holds.
    const FleetStageResult& fleet = result.datacenters[i].fleet;
    text += "fleet: " + labels[i] + " servers=" + std::to_string(fleet.servers) +
            " shapes=";
    for (size_t j = 0; j < fleet.shape_counts.size(); ++j) {
      if (j > 0) {
        text += ",";
      }
      text += fleet.shape_counts[j].first + ":" +
              std::to_string(fleet.shape_counts[j].second);
    }
    text += "\n";
  }
  // The replay line reproduces the captured run in full: same seed, scale
  // and overrides (the fleet comes from the files, but the scheduling and
  // storage stages still draw from (seed, dc-index, tag) streams).
  std::string replay_command = "harvest_sim --scenario=" + config.name +
                               " --seed=" + std::to_string(options.seed);
  if (options.scale != 1.0) {
    char scale_text[32];
    std::snprintf(scale_text, sizeof(scale_text), "%g", options.scale);
    replay_command += std::string(" --scale=") + scale_text;
  }
  for (const std::string& override_text : options.overrides) {
    replay_command += " --set " + override_text;
  }
  replay_command += " --set trace_dir=" + dir;
  text += "replay: " + replay_command + "\n";
  const size_t written = std::fwrite(text.data(), 1, text.size(), file);
  HARVEST_CHECK(std::fclose(file) == 0 && written == text.size())
      << "short write to trace manifest '" << path << "'";
}

// Appends " key=value" to a telemetry line.
void AppendField(std::string& line, const std::string& key, int64_t value) {
  line += " " + key + "=" + std::to_string(value);
}

void AppendField(std::string& line, const std::string& key, double value) {
  char text[32];
  std::snprintf(text, sizeof(text), "%.6g", value);
  line += " " + key + "=" + text;
}

}  // namespace

DatacenterResult RunDatacenterStages(const DcContext& ctx, DcStageTiming& timing) {
  auto dc_start = std::chrono::steady_clock::now();
  timing = DcStageTiming{};
  DatacenterResult dc;
  dc.name = ctx.label;
  FleetBuildOutput fleet = Timed(timing, "fleet_build", [&] { return RunFleetBuildStage(ctx); });
  dc.fleet = fleet.stats;
  dc.clustering =
      Timed(timing, "clustering", [&] { return RunClusteringStage(ctx, fleet.cluster); });
  // One fault timeline per DC, from its "fault" stream, for the scheduling
  // runs and the fault stage alike.
  const bool has_faults = !ctx.config->fault_plan.empty();
  FaultTimeline faults;
  if (has_faults) {
    faults = CompileFaultPlan(ctx.config->fault_plan, fleet.cluster, ctx.StreamSeed("fault"));
  }
  if (ctx.config->run_scheduling) {
    dc.has_scheduling = true;
    dc.scheduling = Timed(timing, "scheduling",
                          [&] { return RunSchedulingStage(ctx, fleet.cluster, faults); });
  }
  dc.placement =
      Timed(timing, "placement", [&] { return RunPlacementAuditStage(ctx, fleet.cluster); });
  if (ctx.config->run_durability) {
    dc.has_durability = true;
    dc.durability =
        Timed(timing, "durability", [&] { return RunDurabilityStage(ctx, fleet.cluster); });
  }
  if (ctx.config->run_availability) {
    dc.has_availability = true;
    dc.availability =
        Timed(timing, "availability", [&] { return RunAvailabilityStage(ctx, fleet.cluster); });
  }
  if (has_faults) {
    dc.has_faults = true;
    dc.faults = Timed(timing, "fault", [&] { return RunFaultStage(ctx, fleet.cluster, faults); });
  }
  timing.total_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - dc_start).count();
  return dc;
}

ScenarioSummary SummarizeScenario(const ScenarioResult& result) {
  ScenarioSummary summary;
  double improvement_sum = 0.0;
  int improvement_count = 0;
  for (const DatacenterResult& dc : result.datacenters) {
    ++summary.datacenters;
    summary.servers += dc.fleet.servers;
    summary.tenants += dc.fleet.tenants;
    if (dc.has_scheduling) {
      summary.jobs_completed +=
          dc.scheduling.primary_aware.jobs_completed + dc.scheduling.history.jobs_completed;
      improvement_sum += dc.scheduling.history_improvement_percent;
      ++improvement_count;
    }
    for (const DurabilityCellResult& cell : dc.durability.cells) {
      if (cell.placement == PlacementKindName(PlacementKind::kStock)) {
        summary.worst_stock_lost_percent =
            std::max(summary.worst_stock_lost_percent, cell.lost_percent);
      } else if (cell.placement == PlacementKindName(PlacementKind::kHistory)) {
        summary.worst_history_lost_percent =
            std::max(summary.worst_history_lost_percent, cell.lost_percent);
      }
    }
  }
  if (improvement_count > 0) {
    summary.mean_scheduling_improvement_percent =
        improvement_sum / static_cast<double>(improvement_count);
  }
  return summary;
}

std::string FormatRunTelemetry(const ScenarioRunResult& run) {
  const RunTelemetry& telemetry = run.telemetry;
  std::string text = "harvest_sim: telemetry";
  AppendField(text, "threads", int64_t{telemetry.threads});
  AppendField(text, "peak_rss_bytes", telemetry.peak_rss_bytes);
  AppendField(text, "total_seconds", telemetry.total_seconds);
  text += "\n";
  for (size_t i = 0; i < telemetry.datacenters.size(); ++i) {
    const DcStageTiming& timing = telemetry.datacenters[i];
    text += "harvest_sim: telemetry name=" + run.result.datacenters[i].name;
    for (const auto& [stage, seconds] : timing.stages) {
      AppendField(text, stage + "_seconds", seconds);
    }
    AppendField(text, "total_seconds", timing.total_seconds);
    text += "\n";
  }
  return text;
}

ScenarioRunResult RunScenario(const ScenarioConfig& base_config,
                              const ScenarioRunOptions& options) {
  // harvest_sim surfaces this as a usage error before calling; library
  // callers who assemble configs by hand fail loudly instead of silently
  // dropping knobs (e.g. server_shapes on a testbed), running zero DCs or
  // shrinking a fleet whose scaled size overflows.
  const std::string config_error = ValidateScenario(base_config, options.scale);
  HARVEST_CHECK(config_error.empty()) << config_error;
  const ScenarioConfig config = ScaledScenario(base_config, options.scale);

  // The suite seed is label-independent by design: every datacenter runs the
  // same 52 queries, so build them once and share them read-only.
  const std::vector<JobDag> suite =
      config.run_scheduling ? BuildTpcDsSuite(DerivedStreamSeed(options.seed, "suite"))
                            : std::vector<JobDag>{};

  const std::vector<std::string> labels = ScenarioLabels(config);
  if (!options.dump_traces_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.dump_traces_dir, ec);
    HARVEST_CHECK(!ec) << "cannot create trace export directory '"
                       << options.dump_traces_dir << "': " << ec.message();
  }

  ScenarioRunResult run;
  run.result.scenario = config.name;
  run.result.description = config.description;
  run.result.seed = options.seed;
  run.result.scale = options.scale;
  run.result.trace_source = MakeTraceSource(config).Provenance();
  run.result.overrides = options.overrides;
  run.result.datacenters.resize(labels.size());
  RunTelemetry& telemetry = run.telemetry;
  telemetry.datacenters.resize(labels.size());

  const int threads = options.threads > 0 ? options.threads : DefaultDriverThreads();
  // Split the thread budget: the per-DC loop soaks up min(threads, DCs)
  // workers, and whatever headroom remains per DC goes to intra-DC task
  // parallelism (the PT / H co-simulations). A single-DC scenario therefore
  // still benefits from --threads.
  const int dc_count = static_cast<int>(labels.size());
  const int task_threads = std::max(1, threads / std::max(1, dc_count));
  auto run_start = std::chrono::steady_clock::now();
  ScenarioResult& result = run.result;
  ParallelForIndex(threads, dc_count, [&](int i) {
    DcContext ctx;
    ctx.config = &config;
    ctx.label = labels[static_cast<size_t>(i)];
    ctx.dc_index = i;
    ctx.dc_seed = DeriveDcSeed(options.seed, i);
    ctx.suite = &suite;
    ctx.task_threads = task_threads;
    ctx.dump_traces_dir = options.dump_traces_dir;
    const size_t index = static_cast<size_t>(i);
    result.datacenters[index] = RunDatacenterStages(ctx, telemetry.datacenters[index]);
  });
  telemetry.threads = threads;
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    // Linux reports ru_maxrss in kilobytes.
    telemetry.peak_rss_bytes = static_cast<int64_t>(usage.ru_maxrss) * 1024;
  }
  telemetry.total_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - run_start).count();
  if (!options.dump_traces_dir.empty()) {
    WriteTraceManifest(options.dump_traces_dir, config, options, labels, result);
  }

  run.summary = SummarizeScenario(run.result);
  run.json = RenderScenarioJson(run.result);
  return run;
}

}  // namespace harvest
