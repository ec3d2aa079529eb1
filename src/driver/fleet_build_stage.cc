// FleetBuildStage: materialize one datacenter's fleet (servers, tenants,
// traces, reimage schedules) from the scenario's trace-generator knobs --
// or, when the scenario names a trace_dir, replay a recorded fleet from
// disk bit-for-bit (src/trace/trace_io). Replay draws no RNG: every
// downstream stage owns its own (seed, dc-index, tag) stream, so a replayed
// run reproduces the exporting run's results byte-identically.

#include "src/cluster/datacenter.h"
#include "src/cluster/fleet_table.h"
#include "src/driver/stage.h"
#include "src/trace/reimage.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_source.h"
#include "src/util/logging.h"

namespace harvest {
namespace {

ReimageModelParams ApplyStorm(ReimageModelParams params, const ScenarioConfig& config) {
  params.mass_event_monthly_prob = config.storm_monthly_prob;
  params.mass_fraction = config.storm_fraction;
  return params;
}

// The testbed builder materializes utilization but no reimage schedules (the
// paper's 102-server testbed was not reimaged); durability / availability
// scenarios need one, so the driver attaches DC-9-distributed schedules.
void AttachReimageSchedules(Cluster& cluster, const ReimageModelParams& params, int months,
                            Rng& rng) {
  for (size_t t = 0; t < cluster.num_tenants(); ++t) {
    PrimaryTenant& tenant = cluster.tenant(static_cast<TenantId>(t));
    const int num_servers = static_cast<int>(tenant.servers.size());
    if (num_servers == 0) {
      continue;
    }
    TenantReimageProcess process(params, num_servers, rng);
    tenant.reimage_rate = process.base_rate();
    cluster.SetTenantReimageEvents(static_cast<TenantId>(t), process.GenerateEvents(months, rng));
  }
}

// Loads the recorded fleet for this DC. Paths were resolved by
// ValidateScenario before the run started; failures here are file integrity
// problems (corruption, truncation, version or shape mismatches) and abort
// with the reader's message.
Cluster ReplayScenarioCluster(const DcContext& ctx, const TraceSource& source) {
  const ScenarioConfig& config = *ctx.config;
  std::string path;
  std::string error;
  HARVEST_CHECK(source.ResolveTraceFile(ctx.label, &path, &error)) << error;
  Cluster cluster;
  TraceFileInfo info;
  HARVEST_CHECK(ReadClusterTraceFile(path, &cluster, &info, &error)) << error;
  HARVEST_CHECK(info.trace_slots == config.trace_slots)
      << "trace file '" << path << "' has " << info.trace_slots
      << " telemetry slots per series but the scenario expects " << config.trace_slots
      << "; rerun with --set trace_slots=" << info.trace_slots;
  return cluster;
}

Cluster BuildScenarioCluster(const DcContext& ctx) {
  const ScenarioConfig& config = *ctx.config;
  const TraceSource source = MakeTraceSource(config);
  if (source.is_replay()) {
    return ReplayScenarioCluster(ctx, source);
  }
  Rng rng(ctx.StreamSeed("build"));
  if (config.use_testbed) {
    Cluster cluster = BuildTestbedCluster(config.testbed_servers, config.trace_slots, rng);
    ReimageModelParams params = DatacenterByName("DC-9").reimage;
    if (config.reimage_storm) {
      params = ApplyStorm(params, config);
    }
    AttachReimageSchedules(cluster, params, config.reimage_months, rng);
    return cluster;
  }
  DatacenterProfile profile = DatacenterByName(ctx.label);
  if (config.reimage_storm) {
    profile.reimage = ApplyStorm(profile.reimage, config);
  }
  BuildOptions build;
  build.trace_slots = config.trace_slots;
  build.reimage_months = config.reimage_months;
  build.scale = config.fleet_scale;
  build.per_server_traces = config.per_server_traces;
  build.server_shapes = config.server_shapes;
  return BuildCluster(profile, build, rng);
}

}  // namespace

FleetBuildOutput RunFleetBuildStage(const DcContext& ctx) {
  FleetBuildOutput output;
  output.cluster = BuildScenarioCluster(ctx);
  if (!ctx.dump_traces_dir.empty()) {
    const std::string path =
        ctx.dump_traces_dir + "/" + TraceSource::TraceFileName(ctx.label);
    std::string error;
    HARVEST_CHECK(WriteClusterTraceFile(output.cluster, path, &error)) << error;
  }
  output.stats.servers = output.cluster.num_servers();
  output.stats.tenants = output.cluster.num_tenants();
  output.stats.average_primary_utilization = output.cluster.AverageUtilization();
  output.stats.harvestable_blocks = output.cluster.TotalHarvestableBlocks();
  output.stats.reimage_events = output.cluster.TotalReimageEvents();
  output.stats.shape_counts = FleetTable(output.cluster).ShapeCounts();
  return output;
}

}  // namespace harvest
