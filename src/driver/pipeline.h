// The orchestrator behind harvest_sim: for every datacenter a scenario
// names, run the composable stage sequence of src/driver/stage.h
// (fleet build -> clustering -> Algorithm-1 scheduling -> Algorithm-2
// placement audit -> durability -> availability) and assemble the typed
// per-DC results, in DC order, into one ScenarioResult plus its rendered
// JSON document.
//
// Datacenters run on a thread pool (src/util/executor.h). Determinism
// contract: same (scenario, seed, scale) => byte-identical JSON for ANY
// --threads value, because every stage draws from a stream derived from
// (seed, dc index, stage tag) alone and results are assembled by index.
// Wall-clock and memory telemetry stays out of the JSON (RunTelemetry), so
// results compare with plain `cmp`.

#ifndef HARVEST_SRC_DRIVER_PIPELINE_H_
#define HARVEST_SRC_DRIVER_PIPELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/driver/scenario.h"
#include "src/driver/stage.h"

namespace harvest {

struct ScenarioRunOptions {
  uint64_t seed = 42;
  // Extra size multiplier applied on top of the preset (see ScaledScenario).
  double scale = 1.0;
  // Worker threads for the per-DC loop; 0 = DefaultDriverThreads().
  int threads = 0;
  // `--set key=value` strings already applied to the config by the caller;
  // recorded verbatim in the JSON for provenance.
  std::vector<std::string> overrides;
  // When non-empty, every datacenter's materialized fleet is exported to
  // `<dump_traces_dir>/<label>.trace` (plus a MANIFEST.txt naming the run)
  // for later replay via `--set trace_dir=`. The directory is created if
  // missing. Export does not perturb results: the files are written from
  // the already-built cluster and no extra RNG is drawn.
  std::string dump_traces_dir;
};

// Headline numbers for CLI display; the full results live in the typed
// ScenarioResult (and its JSON rendering).
struct ScenarioSummary {
  int datacenters = 0;
  size_t servers = 0;
  size_t tenants = 0;
  int64_t jobs_completed = 0;
  // Average over datacenters of the H-vs-baseline execution-time improvement.
  double mean_scheduling_improvement_percent = 0.0;
  // Worst (highest) block-loss percentage seen in any durability cell.
  double worst_stock_lost_percent = 0.0;
  double worst_history_lost_percent = 0.0;
};

// How the run executed, as opposed to what it computed: wall clock, memory
// and the execution layout. Varies from run to run and with --threads, so
// it is never rendered into the result JSON; harvest_sim prints it on stderr
// (FormatRunTelemetry).
struct RunTelemetry {
  int threads = 0;  // worker threads the per-DC loop used
  // Peak resident set of the whole process (getrusage ru_maxrss), bytes.
  int64_t peak_rss_bytes = 0;
  double total_seconds = 0.0;  // RunScenario wall time
  // Per-DC stage wall times, in the order of ScenarioResult::datacenters.
  std::vector<DcStageTiming> datacenters;
};

struct ScenarioRunResult {
  ScenarioSummary summary;
  ScenarioResult result;   // typed stage results, per datacenter
  RunTelemetry telemetry;  // never rendered
  std::string json;        // RenderScenarioJson(result)
};

// Computed from the typed results; exposed for tests.
ScenarioSummary SummarizeScenario(const ScenarioResult& result);

// The run's telemetry as "harvest_sim: telemetry key=value ..." lines: one
// for the whole run, then one per datacenter naming every stage that ran.
std::string FormatRunTelemetry(const ScenarioRunResult& run);

ScenarioRunResult RunScenario(const ScenarioConfig& config, const ScenarioRunOptions& options);

}  // namespace harvest

#endif  // HARVEST_SRC_DRIVER_PIPELINE_H_
