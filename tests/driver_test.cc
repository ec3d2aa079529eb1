#include "src/driver/pipeline.h"

#include <gtest/gtest.h>
#include <stdlib.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "src/driver/json_writer.h"
#include "src/driver/registry.h"
#include "src/driver/result_json.h"
#include "src/driver/scenario.h"
#include "src/driver/stage.h"

namespace harvest {
namespace {

TEST(JsonWriterTest, ObjectsArraysAndScalars) {
  JsonWriter json;
  json.BeginObject();
  json.Field("name", "dc");
  json.Field("servers", 102);
  json.Field("ratio", 0.5);
  json.Field("flag", true);
  json.Key("list").BeginArray().Value(1).Value(2).EndArray();
  json.Key("empty").BeginObject().EndObject();
  json.EndObject();
  EXPECT_EQ(json.TakeString(),
            "{\n"
            "  \"name\": \"dc\",\n"
            "  \"servers\": 102,\n"
            "  \"ratio\": 0.5,\n"
            "  \"flag\": true,\n"
            "  \"list\": [\n"
            "    1,\n"
            "    2\n"
            "  ],\n"
            "  \"empty\": {}\n"
            "}\n");
}

TEST(JsonWriterTest, EscapesStringsAndRejectsNonFinite) {
  JsonWriter json;
  json.BeginObject();
  json.Field("text", "a\"b\\c\nd");
  json.Field("bad", std::numeric_limits<double>::quiet_NaN());
  json.EndObject();
  std::string out = json.TakeString();
  EXPECT_NE(out.find("\"a\\\"b\\\\c\\nd\""), std::string::npos);
  EXPECT_NE(out.find("\"bad\": null"), std::string::npos);
}

TEST(JsonWriterTest, DoubleFormattingIsStable) {
  JsonWriter json;
  json.BeginArray();
  json.Value(1.0 / 3.0);
  json.Value(1e-9);
  json.Value(123456789.0);
  json.EndArray();
  EXPECT_EQ(json.TakeString(),
            "[\n"
            "  0.333333333333,\n"
            "  1e-09,\n"
            "  123456789\n"
            "]\n");
}

TEST(ScenarioTest, PresetsExistWithUniqueNames) {
  const auto& scenarios = AllScenarios();
  ASSERT_GE(scenarios.size(), 7u);
  for (size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_FALSE(scenarios[i].name.empty());
    EXPECT_FALSE(scenarios[i].description.empty());
    for (size_t j = i + 1; j < scenarios.size(); ++j) {
      EXPECT_NE(scenarios[i].name, scenarios[j].name);
    }
  }
  EXPECT_NE(FindScenario("dc9_testbed"), nullptr);
  EXPECT_NE(FindScenario("fleet_sweep"), nullptr);
  EXPECT_NE(FindScenario("reimage_storm"), nullptr);
  EXPECT_NE(FindScenario("hetero_shapes"), nullptr);
  EXPECT_NE(FindScenario("week_horizon"), nullptr);
  EXPECT_NE(FindScenario("storm_under_load"), nullptr);
  EXPECT_NE(FindScenario("storage_stress"), nullptr);
  EXPECT_NE(FindScenario("replay_regression"), nullptr);
  EXPECT_EQ(FindScenario("no_such_scenario"), nullptr);
}

TEST(ScenarioTest, NewPresetsCoverTheRoadmapAxes) {
  const ScenarioConfig* hetero = FindScenario("hetero_shapes");
  ASSERT_NE(hetero, nullptr);
  EXPECT_GE(hetero->server_shapes.size(), 2u);

  const ScenarioConfig* week = FindScenario("week_horizon");
  ASSERT_NE(week, nullptr);
  EXPECT_GE(week->trace_slots, kSlotsPerDay * 7);

  const ScenarioConfig* storm = FindScenario("storm_under_load");
  ASSERT_NE(storm, nullptr);
  EXPECT_TRUE(storm->reimage_storm);
  EXPECT_TRUE(storm->run_scheduling);

  const ScenarioConfig* stress = FindScenario("storage_stress");
  ASSERT_NE(stress, nullptr);
  EXPECT_TRUE(stress->reimage_storm);
  EXPECT_GT(stress->access_rate, 0.0);
  EXPECT_EQ(stress->placement_kinds.size(), 5u);
  EXPECT_GE(stress->replications.size(), 2u);
  EXPECT_TRUE(stress->run_availability);
}

TEST(ScenarioTest, ScalingClampsToWellFormedFloors) {
  const ScenarioConfig* testbed = FindScenario("dc9_testbed");
  ASSERT_NE(testbed, nullptr);
  ScenarioConfig tiny = ScaledScenario(*testbed, 1e-6);
  EXPECT_GE(tiny.testbed_servers, 42);
  EXPECT_GE(tiny.storage_blocks, 1000);
  EXPECT_GE(tiny.availability_blocks, 1000);
  EXPECT_GE(tiny.availability_accesses, 5000);
  EXPECT_GE(tiny.placement_sample_blocks, 100);

  ScenarioConfig same = ScaledScenario(*testbed, 1.0);
  EXPECT_EQ(same.testbed_servers, testbed->testbed_servers);
  EXPECT_EQ(same.storage_blocks, testbed->storage_blocks);
}

TEST(ScenarioRegistryTest, BuiltinNamesAreNonEmptyAndUnique) {
  // FindScenario returns the first preset of a name, so a repeated name
  // would hide the later preset.
  const std::vector<ScenarioConfig> builtins = BuiltinScenarioList();
  ASSERT_EQ(builtins.size(), AllScenarios().size());
  std::set<std::string> names;
  for (size_t i = 0; i < builtins.size(); ++i) {
    const std::string& name = builtins[i].name;
    EXPECT_FALSE(name.empty()) << "preset " << i;
    EXPECT_TRUE(names.insert(name).second) << "'" << name << "' is listed twice";
    EXPECT_EQ(AllScenarios()[i].name, name);
    EXPECT_EQ(FindScenario(name), &AllScenarios()[i]) << name;
  }
}

TEST(ScenarioOverrideTest, SplitsKeyValuePairs) {
  std::string key;
  std::string value;
  std::string error;
  EXPECT_TRUE(SplitOverride("fleet_scale=0.5", &key, &value, &error));
  EXPECT_EQ(key, "fleet_scale");
  EXPECT_EQ(value, "0.5");
  // Values may themselves contain '='; only the first one splits.
  EXPECT_TRUE(SplitOverride("a=b=c", &key, &value, &error));
  EXPECT_EQ(value, "b=c");
  EXPECT_FALSE(SplitOverride("no_equals", &key, &value, &error));
  EXPECT_NE(error.find("key=value"), std::string::npos);
  EXPECT_FALSE(SplitOverride("=value", &key, &value, &error));
}

TEST(ScenarioOverrideTest, RoundTripsEveryKnobKind) {
  ScenarioConfig config = *FindScenario("fleet_sweep");
  std::string error;
  ASSERT_TRUE(ApplyScenarioOverride(config, "fleet_scale", "0.5", &error)) << error;
  EXPECT_DOUBLE_EQ(config.fleet_scale, 0.5);
  ASSERT_TRUE(ApplyScenarioOverride(config, "run_durability", "false", &error)) << error;
  EXPECT_FALSE(config.run_durability);
  ASSERT_TRUE(ApplyScenarioOverride(config, "storage_blocks", "2500", &error)) << error;
  EXPECT_EQ(config.storage_blocks, 2500);
  ASSERT_TRUE(ApplyScenarioOverride(config, "access_rate", "6.5", &error)) << error;
  EXPECT_DOUBLE_EQ(config.access_rate, 6.5);
  ASSERT_TRUE(ApplyScenarioOverride(config, "placement_kinds", "stock,history,soft", &error))
      << error;
  ASSERT_EQ(config.placement_kinds.size(), 3u);
  EXPECT_EQ(config.placement_kinds[2], PlacementKind::kSoft);
  ASSERT_TRUE(ApplyScenarioOverride(config, "datacenters", "DC-1,DC-4", &error)) << error;
  ASSERT_EQ(config.datacenters.size(), 2u);
  EXPECT_EQ(config.datacenters[0], "DC-1");
  ASSERT_TRUE(ApplyScenarioOverride(config, "replications", "3,4", &error)) << error;
  ASSERT_EQ(config.replications.size(), 2u);
  EXPECT_EQ(config.replications[1], 4);
  ASSERT_TRUE(ApplyScenarioOverride(config, "availability_utilizations", "0.25,0.75", &error))
      << error;
  ASSERT_EQ(config.availability_utilizations.size(), 2u);
  EXPECT_DOUBLE_EQ(config.availability_utilizations[1], 0.75);
  ASSERT_TRUE(ApplyScenarioOverride(config, "scheduling_storage", "history", &error)) << error;
  EXPECT_EQ(config.scheduling_storage, StorageVariant::kHistory);
  ASSERT_TRUE(
      ApplyScenarioOverride(config, "server_shapes", "12x32768@0.6,24x65536@0.4", &error))
      << error;
  ASSERT_EQ(config.server_shapes.size(), 2u);
  EXPECT_EQ(config.server_shapes[1].capacity.cores, 24);
  EXPECT_DOUBLE_EQ(config.server_shapes[0].weight, 0.6);
}

TEST(ScenarioOverrideTest, UnknownKeyAndMalformedValueAreUsageErrors) {
  ScenarioConfig config = *FindScenario("dc9_testbed");
  std::string error;
  EXPECT_FALSE(ApplyScenarioOverride(config, "fleet_scael", "0.5", &error));
  EXPECT_NE(error.find("unknown scenario knob"), std::string::npos);
  EXPECT_NE(error.find("fleet_scale"), std::string::npos) << "expected a suggestion: " << error;
  EXPECT_NE(error.find("(see harvest_sim --list-knobs)"), std::string::npos) << error;

  EXPECT_FALSE(ApplyScenarioOverride(config, "fleet_scale", "abc", &error));
  EXPECT_NE(error.find("fleet_scale"), std::string::npos);
  EXPECT_FALSE(ApplyScenarioOverride(config, "fleet_scale", "-1", &error));
  EXPECT_FALSE(ApplyScenarioOverride(config, "fleet_scale", "0.5x", &error));
  EXPECT_FALSE(ApplyScenarioOverride(config, "run_durability", "maybe", &error));
  EXPECT_FALSE(ApplyScenarioOverride(config, "storage_blocks", "12.5", &error));
  EXPECT_FALSE(ApplyScenarioOverride(config, "datacenters", "DC-11", &error));
  EXPECT_EQ(ApplyScenarioOverrideStatus(config, "datacenters", "DC-1,DC-1", &error),
            OverrideStatus::kBadValue);
  EXPECT_NE(error.find("duplicate datacenter 'DC-1'"), std::string::npos) << error;
  EXPECT_FALSE(ApplyScenarioOverride(config, "replications", "3,99", &error));
  EXPECT_FALSE(ApplyScenarioOverride(config, "scheduling_storage", "hdfs", &error));
  EXPECT_FALSE(ApplyScenarioOverride(config, "server_shapes", "12@0.5", &error));
  EXPECT_FALSE(ApplyScenarioOverride(config, "storm_fraction", "1.5", &error));
  EXPECT_FALSE(ApplyScenarioOverride(config, "placement_kinds", "stock,hdfs", &error));
  EXPECT_NE(error.find("placement kind"), std::string::npos);
  EXPECT_FALSE(ApplyScenarioOverride(config, "placement_kinds", "stock,stock", &error));
  EXPECT_FALSE(ApplyScenarioOverride(config, "placement_kinds", "", &error));
  EXPECT_FALSE(ApplyScenarioOverride(config, "access_rate", "-1", &error));
  // Out-of-range values must error, not clamp (ERANGE) or truncate (narrowing).
  EXPECT_FALSE(ApplyScenarioOverride(config, "storage_blocks", "99999999999999999999", &error));
  EXPECT_FALSE(ApplyScenarioOverride(config, "placement_sample_blocks", "4294967296", &error));
  EXPECT_FALSE(ApplyScenarioOverride(config, "elbow_min_gain", "1e999", &error));
  EXPECT_FALSE(ApplyScenarioOverride(config, "server_shapes", "2147483648x32768@1", &error));
  EXPECT_NE(error.find("cores"), std::string::npos) << error;
  EXPECT_FALSE(ApplyScenarioOverride(config, "server_shapes", "12x4294967296@1", &error));
  EXPECT_NE(error.find("memory"), std::string::npos) << error;
  // One number rule on every surface: a subnormal underflow is out of range.
  EXPECT_FALSE(ApplyScenarioOverride(config, "park_threshold", "1e-320", &error));
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;
  // One list rule: an empty item anywhere is an error, a trailing one too.
  EXPECT_FALSE(ApplyScenarioOverride(config, "replications", "3,4,", &error));
  EXPECT_NE(error.find("empty item"), std::string::npos) << error;
  EXPECT_FALSE(ApplyScenarioOverride(config, "datacenters", "DC-1,", &error));
  // A shift of 24 hours or more is a shift of h mod 24, and a huge one
  // would overflow the shift to infinity (a NaN price).
  EXPECT_FALSE(ApplyScenarioOverride(config, "price_phase_hours", "24", &error));
  EXPECT_FALSE(ApplyScenarioOverride(config, "price_phase_hours", "1e305", &error));
  // A value that fails to parse leaves the config untouched.
  ASSERT_TRUE(ApplyScenarioOverride(config, "fault_plan", "rack_outage:7200,1,7200", &error))
      << error;
  EXPECT_FALSE(
      ApplyScenarioOverride(config, "fault_plan", "dc_outage:100,50+rack_outage:1,2,", &error));
  EXPECT_EQ(CanonicalFaultPlan(config.fault_plan), "rack_outage:7200,1,7200");
}

TEST(ScenarioOverrideTest, UnknownKeyAndBadValueAreDistinctStatuses) {
  // The two failure kinds must be machine-distinguishable, not just
  // different prose: tools branch on "fix the key" vs "fix the value".
  ScenarioConfig config = *FindScenario("fleet_sweep");
  std::string error;
  EXPECT_EQ(ApplyScenarioOverrideStatus(config, "fleet_scale", "0.5", &error),
            OverrideStatus::kOk);
  EXPECT_EQ(ApplyScenarioOverrideStatus(config, "fleet_scael", "0.5", &error),
            OverrideStatus::kUnknownKey);
  EXPECT_NE(error.find("did you mean"), std::string::npos);
  // Each co-simulation runs on one thread and --threads is the only layout
  // input; there is no shard knob to set.
  EXPECT_EQ(ApplyScenarioOverrideStatus(config, "rm_shards", "1", &error),
            OverrideStatus::kUnknownKey);
  EXPECT_EQ(ApplyScenarioOverrideStatus(config, "nn_shards", "1", &error),
            OverrideStatus::kUnknownKey);
  EXPECT_EQ(ApplyScenarioOverrideStatus(config, "fleet_scale", "banana", &error),
            OverrideStatus::kBadValue);
  EXPECT_NE(error.find("fleet_scale"), std::string::npos);
  // String knobs ride the same machinery: empty value = bad value, typo'd
  // key = unknown key with a suggestion.
  EXPECT_EQ(ApplyScenarioOverrideStatus(config, "trace_dir", "", &error),
            OverrideStatus::kBadValue);
  EXPECT_EQ(ApplyScenarioOverrideStatus(config, "trace_dirr", "/tmp/x", &error),
            OverrideStatus::kUnknownKey);
  EXPECT_NE(error.find("trace_dir"), std::string::npos);
  EXPECT_EQ(ApplyScenarioOverrideStatus(config, "trace_dir", "some/dir", &error),
            OverrideStatus::kOk);
  EXPECT_EQ(config.trace_dir, "some/dir");
}

TEST(ScenarioOverrideTest, TargetUtilizationOfOneIsABadValue) {
  // The rescale solves for an average strictly below 1: a target of 1 must
  // be refused as a usage error, not abort the run after the fleet is built.
  ScenarioConfig config = *FindScenario("fleet_sweep");
  std::string error;
  EXPECT_EQ(ApplyScenarioOverrideStatus(config, "scheduling_target_utilization", "1", &error),
            OverrideStatus::kBadValue);
  EXPECT_NE(error.find("[0, 1)"), std::string::npos) << error;
  EXPECT_EQ(ApplyScenarioOverrideStatus(config, "scheduling_target_utilization", "1.5", &error),
            OverrideStatus::kBadValue);
  EXPECT_EQ(ApplyScenarioOverrideStatus(config, "scheduling_target_utilization", "-0.1", &error),
            OverrideStatus::kBadValue);
  EXPECT_EQ(ApplyScenarioOverrideStatus(config, "scheduling_target_utilization", "0.999", &error),
            OverrideStatus::kOk);
  EXPECT_DOUBLE_EQ(config.scheduling_target_utilization, 0.999);
  EXPECT_EQ(ApplyScenarioOverrideStatus(config, "scheduling_target_utilization", "0", &error),
            OverrideStatus::kOk);
  EXPECT_EQ(config.scheduling_target_utilization, 0.0);
}

TEST(ScenarioOverrideTest, ValidateScenarioCatchesCrossKnobConflicts) {
  ScenarioConfig config = *FindScenario("dc9_testbed");
  EXPECT_EQ(ValidateScenario(config), "");
  std::string error;
  ASSERT_TRUE(ApplyScenarioOverride(config, "server_shapes", "48x131072@1", &error)) << error;
  EXPECT_NE(ValidateScenario(config).find("server_shapes"), std::string::npos);

  ScenarioConfig no_dcs = *FindScenario("fleet_sweep");
  no_dcs.datacenters.clear();
  EXPECT_NE(ValidateScenario(no_dcs).find("datacenters"), std::string::npos);
  EXPECT_EQ(ValidateScenario(*FindScenario("hetero_shapes")), "");
}

TEST(ScenarioOverrideTest, ValidateScenarioRejectsScaledSizesThatOverflow) {
  // An overflowing product would round to the minimum and a size floor would
  // hide it; the message names the knob and the scale.
  const ScenarioConfig testbed = *FindScenario("dc9_testbed");
  EXPECT_EQ(ValidateScenario(testbed, 0.05), "");
  EXPECT_EQ(ValidateScenario(testbed, 1e6), "");  // large, but every size still fits
  for (double scale : {3e7, 1e300}) {
    const std::string error = ValidateScenario(testbed, scale);
    EXPECT_NE(error.find("testbed_servers"), std::string::npos) << error;
    EXPECT_NE(error.find("--scale="), std::string::npos) << error;
  }
  ScenarioConfig fleet = *FindScenario("fleet_sweep");
  fleet.fleet_scale = 1e300;
  std::string error = ValidateScenario(fleet);
  EXPECT_NE(error.find("fleet_scale"), std::string::npos) << error;
  EXPECT_NE(error.find("tenant count"), std::string::npos) << error;
  EXPECT_EQ(error.find("--scale"), std::string::npos) << error;
  // Past every size's range: the fleet is named first.
  error = ValidateScenario(*FindScenario("reimage_storm"), 1e300);
  EXPECT_NE(error.find("fleet_scale"), std::string::npos) << error;
  // A rate the scale pushes to infinity.
  ScenarioConfig rate = testbed;
  rate.access_rate = std::numeric_limits<double>::max();
  error = ValidateScenario(rate, 2.0);
  EXPECT_NE(error.find("access_rate scaled by --scale=2 is not finite"), std::string::npos)
      << error;
}

TEST(ScenarioOverrideTest, ClusteringKnobsReachTheSchedulingSimulation) {
  // max_classes_per_pattern must change the classes the H scheduler uses,
  // not just the clustering report: cap it at one class per pattern and the
  // per-class diagnostics must shrink to at most kNumPatterns entries.
  ScenarioConfig config = *FindScenario("dc9_testbed");
  std::string error;
  ASSERT_TRUE(ApplyScenarioOverride(config, "max_classes_per_pattern", "1", &error)) << error;
  ScenarioRunOptions options;
  options.seed = 42;
  options.scale = 0.2;
  ScenarioRunResult run = RunScenario(config, options);
  ASSERT_TRUE(run.result.datacenters[0].has_scheduling);
  const auto& diagnostics = run.result.datacenters[0].scheduling.class_diagnostics;
  ASSERT_FALSE(diagnostics.empty());
  EXPECT_LE(diagnostics.size(), static_cast<size_t>(kNumPatterns));
}

TEST(StageApiTest, DcSeedsAreIndexDerivedAndStable) {
  // The executor's determinism rests on these being pure functions of
  // (seed, index) / (seed, tag) -- independent of threads or call order.
  EXPECT_EQ(DeriveDcSeed(42, 0), DeriveDcSeed(42, 0));
  EXPECT_NE(DeriveDcSeed(42, 0), DeriveDcSeed(42, 1));
  EXPECT_NE(DeriveDcSeed(42, 0), DeriveDcSeed(43, 0));
  EXPECT_NE(DerivedStreamSeed(7, "build"), DerivedStreamSeed(7, "clustering"));

  DcContext ctx;
  ctx.dc_seed = DeriveDcSeed(42, 3);
  EXPECT_EQ(ctx.StreamSeed("durability"), DerivedStreamSeed(DeriveDcSeed(42, 3), "durability"));
}

TEST(ResultJsonTest, RendersOverridesAndTopLevelFields) {
  ScenarioResult result;
  result.scenario = "derived";
  result.description = "desc";
  result.seed = 7;
  result.scale = 0.5;
  result.overrides = {"fleet_scale=0.5", "run_durability=false"};
  std::string json = RenderScenarioJson(result);
  EXPECT_NE(json.find("\"schema_version\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"trace_source\": \"synthetic\""), std::string::npos);
  EXPECT_NE(json.find("\"fleet_scale=0.5\""), std::string::npos);
  EXPECT_NE(json.find("\"run_durability=false\""), std::string::npos);
  EXPECT_NE(json.find("\"datacenters\": []"), std::string::npos);
}

// The layout CTests (one per file under tests/golden, see CMakeLists.txt)
// loop over goldens, not over the registry: a scenario without a golden
// would escape every byte check, and a golden without a scenario would fail
// to run. Goldens are named <scenario>.seed<N>.json.
TEST(GoldenCoverageTest, EveryScenarioHasAGoldenAndEveryGoldenAScenario) {
  std::set<std::string> blessed;
  for (const auto& entry : std::filesystem::directory_iterator(HARVEST_GOLDEN_DIR)) {
    const std::string file = entry.path().filename().string();
    const size_t seed_at = file.rfind(".seed");
    ASSERT_TRUE(seed_at != std::string::npos && entry.path().extension() == ".json")
        << "golden " << file << " is not named <scenario>.seed<N>.json";
    const std::string scenario = file.substr(0, seed_at);
    EXPECT_NE(FindScenario(scenario), nullptr)
        << "golden " << file << " names no registered scenario";
    blessed.insert(scenario);
  }
  for (const ScenarioConfig& scenario : AllScenarios()) {
    EXPECT_EQ(blessed.count(scenario.name), 1u)
        << "scenario " << scenario.name << " has no golden under " << HARVEST_GOLDEN_DIR
        << " (bless it with tools/bless_goldens.sh)";
  }
}

// The driver's core contract: one (scenario, seed, scale) triple produces
// byte-identical JSON across runs, so results can be diffed by CI.
TEST(DriverPipelineTest, SameScenarioAndSeedProduceIdenticalJson) {
  const ScenarioConfig* scenario = FindScenario("dc9_testbed");
  ASSERT_NE(scenario, nullptr);
  ScenarioRunOptions options;
  options.seed = 42;
  options.scale = 0.2;
  ScenarioRunResult first = RunScenario(*scenario, options);
  ScenarioRunResult second = RunScenario(*scenario, options);
  EXPECT_EQ(first.json, second.json);
  EXPECT_FALSE(first.json.empty());
  // The run exercised every stage of the pipeline.
  EXPECT_NE(first.json.find("\"clustering\""), std::string::npos);
  EXPECT_NE(first.json.find("\"scheduling\""), std::string::npos);
  EXPECT_NE(first.json.find("\"placement\""), std::string::npos);
  EXPECT_NE(first.json.find("\"durability\""), std::string::npos);
  EXPECT_NE(first.json.find("\"availability\""), std::string::npos);
  EXPECT_GT(first.summary.jobs_completed, 0);
}

TEST(DriverPipelineTest, DifferentSeedsProduceDifferentJson) {
  const ScenarioConfig* scenario = FindScenario("reimage_storm");
  ASSERT_NE(scenario, nullptr);
  ScenarioRunOptions options;
  options.scale = 0.05;
  options.seed = 1;
  ScenarioRunResult first = RunScenario(*scenario, options);
  options.seed = 2;
  ScenarioRunResult second = RunScenario(*scenario, options);
  EXPECT_NE(first.json, second.json);
}

// Asserts that HDFS-H's `metric` is at most HDFS-Stock's in every row of a
// kind-minor storage grid (cells[row * kinds + kind]).
template <typename Cell>
void ExpectHistoryAtOrBelowStock(const std::vector<std::string>& kinds,
                                 const std::vector<Cell>& cells, double Cell::*metric,
                                 const std::string& where) {
  auto index = [&](PlacementKind kind) {
    return static_cast<size_t>(
        std::find(kinds.begin(), kinds.end(), PlacementKindName(kind)) - kinds.begin());
  };
  const size_t stock = index(PlacementKind::kStock);
  const size_t history = index(PlacementKind::kHistory);
  ASSERT_LT(stock, kinds.size()) << where;
  ASSERT_LT(history, kinds.size()) << where;
  ASSERT_FALSE(cells.empty()) << where;
  ASSERT_EQ(cells.size() % kinds.size(), 0u) << where;
  for (size_t row = 0; row < cells.size(); row += kinds.size()) {
    EXPECT_LE(cells[row + history].*metric, cells[row + stock].*metric)
        << where << ", grid row " << row / kinds.size();
  }
}

// The paper's durability headline must survive the storm scenario: history-
// based placement never loses more than stock under correlated reimaging.
// The evaluation's shape claims are then asserted cell by cell on the golden
// configuration (seed 42, scale 0.05) of fleet_sweep and of every preset with
// a storage grid, so a re-bless cannot silently flip one:
//   Fig 15: HDFS-H loses no more than HDFS-Stock at each replication factor,
//           and nothing at 4x;
//   Fig 16: HDFS-H fails no more accesses than HDFS-Stock at each target
//           utilization;
//   Fig 14: YARN-H improves on YARN-PT in all ten fleet_sweep datacenters.
TEST(DriverPipelineTest, StormScenarioKeepsHistoryAtOrBelowStockLoss) {
  const ScenarioConfig* scenario = FindScenario("reimage_storm");
  ASSERT_NE(scenario, nullptr);
  ScenarioRunOptions options;
  options.seed = 7;
  options.scale = 0.1;
  ScenarioRunResult result = RunScenario(*scenario, options);
  EXPECT_LE(result.summary.worst_history_lost_percent,
            result.summary.worst_stock_lost_percent);

  for (const std::string name : {"fleet_sweep", "dc9_testbed", "reimage_storm", "hetero_shapes",
                                 "week_horizon", "storm_under_load", "storage_stress"}) {
    scenario = FindScenario(name);
    ASSERT_NE(scenario, nullptr) << name;
    ScenarioRunOptions golden;
    golden.seed = 42;
    golden.scale = 0.05;
    ScenarioRunResult run = RunScenario(*scenario, golden);
    ASSERT_FALSE(run.result.datacenters.empty()) << name;
    for (const DatacenterResult& dc : run.result.datacenters) {
      const std::string where = name + " " + dc.name;
      ASSERT_TRUE(dc.has_durability) << where;
      ExpectHistoryAtOrBelowStock(dc.durability.placement_kinds, dc.durability.cells,
                                  &DurabilityCellResult::lost_percent, where + " Fig 15");
      for (const DurabilityCellResult& cell : dc.durability.cells) {
        if (cell.placement == PlacementKindName(PlacementKind::kHistory) &&
            cell.replication == 4) {
          EXPECT_EQ(cell.lost_percent, 0.0) << where << " Fig 15, HDFS-H at 4x";
        }
      }
      if (dc.has_availability) {
        ExpectHistoryAtOrBelowStock(dc.availability.placement_kinds, dc.availability.cells,
                                    &AvailabilityCellResult::failed_percent, where + " Fig 16");
      }
    }
    if (name == "fleet_sweep") {
      ASSERT_EQ(run.result.datacenters.size(), 10u);
      for (const DatacenterResult& dc : run.result.datacenters) {
        ASSERT_TRUE(dc.has_scheduling) << dc.name;
        EXPECT_GT(dc.scheduling.history_improvement_percent, 0.0) << "Fig 14, " << dc.name;
      }
    }
  }
}

// Paper §3's anchors (Figs 2-6) on the fleets the driver simulates: the
// clustering stage's counts for fleet_sweep at nine seeds, without the
// scheduling and durability stages. A DC holds only 33 to 48 tenants at
// this scale, too few for a share per DC (Fig 3's server-to-tenant ratio
// falls to 0.43x on one DC at seed 42), so each share is summed over the
// ten DCs. Anchors that the simulated fleets miss are listed, not
// asserted, in DESIGN.md.
TEST(DriverPipelineTest, CharacterizationAnchorsHoldOnTheSimulatedFleets) {
  ScenarioConfig config = *FindScenario("fleet_sweep");
  config.fleet_scale = 0.3;
  config.per_server_traces = false;
  config.run_scheduling = false;
  config.run_durability = false;
  const auto periodic = static_cast<size_t>(UtilizationPattern::kPeriodic);
  const auto constant = static_cast<size_t>(UtilizationPattern::kConstant);
  for (const uint64_t seed : {1, 2, 3, 4, 5, 6, 7, 8, 42}) {
    ScenarioRunOptions options;
    options.seed = seed;
    const ScenarioRunResult run = RunScenario(config, options);
    ASSERT_EQ(run.result.datacenters.size(), 10u) << "seed " << seed;
    std::array<double, kNumPatterns> tenants{};
    std::array<double, kNumPatterns> servers{};
    double all_tenants = 0.0;
    double all_servers = 0.0;
    double servers_at_most_one = 0.0;
    double tenants_at_most_one = 0.0;
    double tenants_stable = 0.0;
    for (const DatacenterResult& dc : run.result.datacenters) {
      const std::string where = "seed " + std::to_string(seed) + " " + dc.name;
      const ClusteringStageResult& clustering = dc.clustering;
      size_t dc_tenants = 0;
      size_t dc_servers = 0;
      for (size_t p = 0; p < tenants.size(); ++p) {
        tenants[p] += clustering.tenants_per_pattern[p];
        servers[p] += clustering.servers_per_pattern[p];
        dc_tenants += static_cast<size_t>(clustering.tenants_per_pattern[p]);
        dc_servers += static_cast<size_t>(clustering.servers_per_pattern[p]);
      }
      EXPECT_EQ(dc_tenants, dc.fleet.tenants) << where;
      EXPECT_EQ(dc_servers, dc.fleet.servers) << where;
      EXPECT_GT(dc.fleet.reimage_events, 0) << where;
      const ClusteringReimageResult& reimages = clustering.reimages;
      ASSERT_EQ(reimages.tenants_by_tertile_changes.size(),
                static_cast<size_t>(reimages.months))
          << where;
      int64_t histogram_tenants = 0;
      for (int64_t count : reimages.tenants_by_tertile_changes) {
        histogram_tenants += count;
      }
      EXPECT_EQ(static_cast<size_t>(histogram_tenants), dc.fleet.tenants) << where;
      // Fig 6's "at most 8 changes in 35 transitions", scaled to the run's
      // months - 1 transitions and rounded up: 3 of 11 for 12 months.
      const int budget = (8 * (reimages.months - 1) + 34) / 35;
      for (int k = 0; k <= budget; ++k) {
        tenants_stable += static_cast<double>(reimages.tenants_by_tertile_changes[k]);
      }
      all_tenants += static_cast<double>(dc.fleet.tenants);
      all_servers += static_cast<double>(dc.fleet.servers);
      servers_at_most_one += static_cast<double>(reimages.servers_at_most_one_per_month);
      tenants_at_most_one += static_cast<double>(reimages.tenants_at_most_one_per_server_month);
    }
    const std::string where = "seed " + std::to_string(seed);
    // Fig 2: periodic tenants are a minority, and fewer than constant ones.
    EXPECT_LT(tenants[periodic], tenants[constant]) << where;
    EXPECT_LT(tenants[periodic] / all_tenants, 0.5) << where;
    EXPECT_GE(tenants[constant] / all_tenants, 0.4) << where;
    // Fig 3: periodic tenants run user-facing fleets, so they hold a larger
    // share of servers than of tenants; history predicts most servers.
    EXPECT_GT(servers[periodic] / all_servers, 1.5 * tenants[periodic] / all_tenants) << where;
    EXPECT_GE((servers[periodic] + servers[constant]) / all_servers, 0.55) << where;
    // Fig 4: at least 90% of servers see at most one reimage a month.
    EXPECT_GE(servers_at_most_one / all_servers, 0.9) << where;
    // Fig 5: at least 80% of tenants see at most one per server a month.
    EXPECT_GE(tenants_at_most_one / all_tenants, 0.8) << where;
    // Fig 6: reimage-frequency ranks are stable.
    EXPECT_GT(tenants_stable / all_tenants, 0.7) << where;
  }
}

// The threading determinism contract: the JSON document is byte-identical
// for any worker-thread count, on every registered scenario. --threads=4 on
// a single-DC scenario also exercises the intra-DC PT/H task split.
TEST(DriverPipelineTest, ThreadCountNeverChangesJson) {
  for (const ScenarioConfig& scenario : AllScenarios()) {
    ScenarioRunOptions options;
    options.seed = 42;
    options.scale = 0.02;
    options.threads = 1;
    ScenarioRunResult serial = RunScenario(scenario, options);
    options.threads = 4;
    ScenarioRunResult parallel = RunScenario(scenario, options);
    EXPECT_EQ(serial.json, parallel.json) << "scenario " << scenario.name;
    EXPECT_FALSE(serial.json.empty());
  }
}

// Wall-clock and memory telemetry never reaches the result JSON, so results
// compare with plain `cmp`; it is kept, typed, in ScenarioRunResult.
TEST(DriverPipelineTest, TelemetryIsPopulatedButNeverRendered) {
  const ScenarioConfig* scenario = FindScenario("reimage_storm");
  ASSERT_NE(scenario, nullptr);
  ScenarioRunOptions options;
  options.seed = 7;
  options.scale = 0.05;
  options.threads = 2;
  ScenarioRunResult run = RunScenario(*scenario, options);
  EXPECT_EQ(run.json.find("\"timing\""), std::string::npos);
  EXPECT_EQ(run.json, RenderScenarioJson(run.result));
  EXPECT_EQ(run.telemetry.threads, 2);
  EXPECT_GT(run.telemetry.total_seconds, 0.0);
  EXPECT_GT(run.telemetry.peak_rss_bytes, 0);
  ASSERT_EQ(run.telemetry.datacenters.size(), 1u);
  const DcStageTiming& timing = run.telemetry.datacenters[0];
  EXPECT_GT(timing.total_seconds, 0.0);
  // Each stage that ran, in run order: reimage_storm schedules nothing.
  std::vector<std::string> stages;
  double stage_seconds = 0.0;
  for (const auto& [stage, seconds] : timing.stages) {
    stages.push_back(stage);
    stage_seconds += seconds;
  }
  EXPECT_EQ(stages,
            (std::vector<std::string>{"fleet_build", "clustering", "placement", "durability"}));
  // Stage times are disjoint slices of the DC's own wall time (the slack
  // only absorbs rounding in the per-stage double conversions).
  EXPECT_LE(stage_seconds, timing.total_seconds + 1e-9);
}

// harvest_sim prints FormatRunTelemetry on stderr: the run's fields, then
// per DC one field for each stage that ran, in run order.
TEST(DriverPipelineTest, TelemetryLinesCarryEveryField) {
  ScenarioRunResult run;
  run.telemetry.threads = 3;
  run.telemetry.peak_rss_bytes = 1048576;
  run.telemetry.total_seconds = 9.5;
  DcStageTiming timing;
  timing.stages = {{"fleet_build", 0.5}, {"clustering", 0.25}, {"scheduling", 3.0},
                   {"placement", 0.0625}, {"durability", 1.5}, {"availability", 2.0},
                   {"fault", 1.0}};
  timing.total_seconds = 9.0;
  DcStageTiming unscheduled;
  unscheduled.stages = {{"fleet_build", 0.0}, {"clustering", 0.0}, {"placement", 0.0}};
  run.result.datacenters.resize(2);
  run.result.datacenters[0].name = "DC-0";
  run.result.datacenters[1].name = "DC-1";
  run.telemetry.datacenters = {timing, unscheduled};
  EXPECT_EQ(FormatRunTelemetry(run),
            "harvest_sim: telemetry threads=3 peak_rss_bytes=1048576 total_seconds=9.5\n"
            "harvest_sim: telemetry name=DC-0 fleet_build_seconds=0.5 clustering_seconds=0.25 "
            "scheduling_seconds=3 placement_seconds=0.0625 "
            "durability_seconds=1.5 availability_seconds=2 fault_seconds=1 total_seconds=9\n"
            "harvest_sim: telemetry name=DC-1 fleet_build_seconds=0 "
            "clustering_seconds=0 placement_seconds=0 total_seconds=0\n");
}

TEST(DriverPipelineTest, TypedResultsMatchRenderedJsonAndSummary) {
  const ScenarioConfig* scenario = FindScenario("reimage_storm");
  ASSERT_NE(scenario, nullptr);
  ScenarioRunOptions options;
  options.seed = 5;
  options.scale = 0.05;
  ScenarioRunResult run = RunScenario(*scenario, options);
  ASSERT_EQ(run.result.datacenters.size(), 1u);
  const DatacenterResult& dc = run.result.datacenters[0];
  EXPECT_EQ(dc.name, "DC-9");
  EXPECT_GT(dc.fleet.servers, 0u);
  EXPECT_TRUE(dc.has_durability);
  EXPECT_FALSE(dc.has_scheduling);
  EXPECT_EQ(dc.durability.cells.size(),
            scenario->placement_kinds.size() * scenario->replications.size());
  EXPECT_EQ(dc.durability.placement_kinds.size(), scenario->placement_kinds.size());
  // Re-rendering the typed results reproduces the run's JSON exactly.
  EXPECT_EQ(RenderScenarioJson(run.result), run.json);
  // And the summary is a pure function of the typed results.
  ScenarioSummary summary = SummarizeScenario(run.result);
  EXPECT_EQ(summary.datacenters, run.summary.datacenters);
  EXPECT_EQ(summary.servers, run.summary.servers);
  EXPECT_DOUBLE_EQ(summary.worst_stock_lost_percent, run.summary.worst_stock_lost_percent);
}

// ISSUE-4 acceptance: the storage grid exercises every declared
// PlacementKind by default, and the JSON grid schema names them all --
// nothing silently drops kRandom/kGreedy/kSoft anymore.
TEST(DriverPipelineTest, StorageGridCoversAllFivePlacementKinds) {
  const ScenarioConfig* scenario = FindScenario("reimage_storm");
  ASSERT_NE(scenario, nullptr);
  ASSERT_EQ(scenario->placement_kinds.size(), 5u);
  ScenarioRunOptions options;
  options.seed = 11;
  options.scale = 0.05;
  ScenarioRunResult run = RunScenario(*scenario, options);
  for (PlacementKind kind : AllPlacementKinds()) {
    const std::string quoted = std::string("\"") + PlacementKindName(kind) + "\"";
    EXPECT_NE(run.json.find(quoted), std::string::npos)
        << PlacementKindName(kind) << " missing from scenario JSON";
  }
  // Grid shape: kinds x replications cells, kind-minor, with the axes
  // rendered ahead of the cells.
  ASSERT_EQ(run.result.datacenters.size(), 1u);
  const DurabilityStageResult& durability = run.result.datacenters[0].durability;
  ASSERT_EQ(durability.cells.size(), 5u * scenario->replications.size());
  for (size_t i = 0; i < durability.cells.size(); ++i) {
    EXPECT_EQ(durability.cells[i].placement, durability.placement_kinds[i % 5]);
    EXPECT_EQ(durability.cells[i].replication,
              scenario->replications[i / 5]);
  }
  EXPECT_NE(run.json.find("\"placement_kinds\""), std::string::npos);
}

// The access_rate axis: reads riding the reimage timeline observe blocks
// mid-heal, so the durability cells report access outcomes.
TEST(DriverPipelineTest, AccessRateInjectsReadsIntoTheDurabilityTimeline) {
  ScenarioConfig config = *FindScenario("reimage_storm");
  std::string error;
  ASSERT_TRUE(ApplyScenarioOverride(config, "access_rate", "40", &error)) << error;
  ASSERT_TRUE(ApplyScenarioOverride(config, "placement_kinds", "stock,history", &error))
      << error;
  ScenarioRunOptions options;
  options.seed = 11;
  options.scale = 0.05;
  ScenarioRunResult run = RunScenario(config, options);
  ASSERT_EQ(run.result.datacenters.size(), 1u);
  const DurabilityStageResult& durability = run.result.datacenters[0].durability;
  ASSERT_FALSE(durability.cells.empty());
  for (const DurabilityCellResult& cell : durability.cells) {
    EXPECT_GT(cell.accesses, 0) << cell.placement << " r" << cell.replication;
  }
  // Paired comparison: every cell of one replication saw the same accesses.
  EXPECT_EQ(durability.cells[0].accesses, durability.cells[1].accesses);
  EXPECT_NE(run.json.find("\"accesses\""), std::string::npos);
}

// The deferral curve stops at the horizon, so a window reaching past it
// defers exactly like one that ends there. A window of 1e9 hours is past
// int range in slots, so the curve must be bounded before the int cast.
TEST(DriverPipelineTest, DeferralWindowPastTheHorizonMatchesOneEndingThere) {
  ScenarioRunOptions options;
  options.seed = 42;
  options.scale = 0.05;
  std::string json[2];
  const char* windows[2] = {"8", "1e9"};  // power_cap's horizon is 8 hours
  for (int i = 0; i < 2; ++i) {
    ScenarioConfig config = *FindScenario("power_cap");
    std::string error;
    ASSERT_TRUE(ApplyScenarioOverride(config, "defer_window_hours", windows[i], &error))
        << error;
    ScenarioRunResult run = RunScenario(config, options);
    ASSERT_EQ(run.result.datacenters.size(), 1u);
    EXPECT_GT(run.result.datacenters[0].scheduling.history.energy.deferred_jobs, 0)
        << windows[i];
    json[i] = run.json;
  }
  EXPECT_EQ(json[0], json[1]);
}

// No golden runs the fault or power presets without the scheduling stage.
// The faults block then renders the H run's three figures as 0, and no
// energy block renders: only the scheduling runs carry a ledger.
TEST(DriverPipelineTest, FaultAndPowerPresetsWithoutSchedulingRenderNoRunFigures) {
  ScenarioRunOptions options;
  options.seed = 42;
  options.scale = 0.05;
  std::string fault_json;
  for (const char* name : {"rack_outage", "power_cap"}) {
    ScenarioConfig config = *FindScenario(name);
    std::string error;
    ASSERT_TRUE(ApplyScenarioOverride(config, "run_scheduling", "false", &error)) << error;
    const ScenarioRunResult run = RunScenario(config, options);
    ASSERT_EQ(run.result.datacenters.size(), 1u) << name;
    EXPECT_FALSE(run.result.datacenters[0].has_scheduling) << name;
    EXPECT_EQ(run.json.find("\"energy\""), std::string::npos) << name;
    if (run.result.datacenters[0].has_faults) {
      fault_json = run.json.substr(run.json.find("\"faults\""));
    }
  }
  ASSERT_FALSE(fault_json.empty()) << "rack_outage renders a faults block";
  for (const char* line : {"\"history_improvement_percent\": 0,\n",
                           "\"fault_evictions\": 0,\n", "\"forecast_degraded_seconds\": 0\n"}) {
    EXPECT_NE(fault_json.find(line), std::string::npos) << line;
  }
}

// --- Trace export / replay ------------------------------------------------

std::string FreshTempDir(const char* tag) {
  // mkdtemp: unique even across concurrent test processes on one machine.
  std::string pattern = (std::filesystem::temp_directory_path() /
                         (std::string("driver_trace_") + tag + "_XXXXXX"))
                            .string();
  const char* dir = mkdtemp(pattern.data());
  EXPECT_NE(dir, nullptr);
  return pattern;
}

// The tentpole contract: a replayed run byte-reproduces the synthetic run
// that exported it -- same fleets from disk, same downstream RNG streams --
// differing only in declared provenance.
TEST(TraceReplayTest, ReplayReproducesTheSyntheticRunByteIdentically) {
  const std::string dir = FreshTempDir("roundtrip");
  ScenarioConfig config = *FindScenario("reimage_storm");
  ScenarioRunOptions options;
  options.seed = 17;
  options.scale = 0.05;
  options.threads = 2;
  options.dump_traces_dir = dir;
  ScenarioRunResult synthetic = RunScenario(config, options);
  EXPECT_EQ(synthetic.result.trace_source, "synthetic");
  EXPECT_TRUE(std::filesystem::exists(dir + "/DC-9.trace"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/MANIFEST.txt"));
  {
    // The manifest is self-describing: it names the size and shape mix of
    // every recorded fleet, so readers need not parse the binary traces.
    std::ifstream manifest(dir + "/MANIFEST.txt");
    const std::string text((std::istreambuf_iterator<char>(manifest)),
                           std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("fleet: DC-9 servers="), std::string::npos) << text;
    EXPECT_NE(text.find(" shapes=12c32768m:"), std::string::npos) << text;
  }

  ScenarioConfig replay_config = config;
  replay_config.trace_dir = dir;
  ScenarioRunOptions replay_options = options;
  replay_options.dump_traces_dir.clear();
  // Replay ignores fleet scaling (the fleet comes from disk); everything
  // else -- storage grids, placement audit, every RNG stream -- must match.
  ScenarioRunResult replayed = RunScenario(replay_config, replay_options);
  EXPECT_EQ(replayed.result.trace_source, "replay:" + dir);

  // Align the one intentional difference, then demand byte equality.
  replayed.result.trace_source = synthetic.result.trace_source;
  EXPECT_EQ(RenderScenarioJson(synthetic.result), RenderScenarioJson(replayed.result));
  std::filesystem::remove_all(dir);
}

// ISSUE-5 satellite: replayed-scenario JSON is byte-identical across runs
// (and across thread counts -- replay has no RNG of its own to misuse).
TEST(TraceReplayTest, ReplayedScenarioIsDeterministic) {
  const ScenarioConfig* scenario = FindScenario("replay_regression");
  ASSERT_NE(scenario, nullptr);
  ScenarioRunOptions options;
  options.seed = 42;
  options.scale = 0.05;
  options.threads = 1;
  ScenarioRunResult first = RunScenario(*scenario, options);
  options.threads = 4;
  ScenarioRunResult second = RunScenario(*scenario, options);
  EXPECT_EQ(first.json, second.json);
}

// ISSUE-5 acceptance: the committed reproducer trace -- captured from the
// fleet_sweep configuration where YARN-H used to trail YARN-PT by ~19% --
// now shows H >= PT (the ranking/elbow/forecast fixes; the golden pins the
// exact numbers).
TEST(TraceReplayTest, ReplayRegressionShowsHistoryAtLeastMatchingPt) {
  const ScenarioConfig* scenario = FindScenario("replay_regression");
  ASSERT_NE(scenario, nullptr);
  EXPECT_EQ(scenario->trace_dir, "tests/traces/replay_regression");
  ScenarioRunOptions options;
  options.seed = 42;
  options.scale = 0.05;
  ScenarioRunResult run = RunScenario(*scenario, options);
  ASSERT_EQ(run.result.datacenters.size(), 1u);
  const DatacenterResult& dc = run.result.datacenters[0];
  ASSERT_TRUE(dc.has_scheduling);
  EXPECT_GE(dc.scheduling.history_improvement_percent, 0.0)
      << "YARN-H trails YARN-PT on the committed regression trace";
  // The fleet really came from disk: replay ignores --scale, so the full
  // recorded fleet ran despite the tiny smoke scale.
  EXPECT_EQ(dc.fleet.servers, 249u);
  EXPECT_NE(run.result.trace_source.find("replay:"), std::string::npos);
}

TEST(TraceReplayTest, ValidateScenarioRejectsBadReplayConfigs) {
  ScenarioConfig config = *FindScenario("replay_regression");
  config.datacenters = {"DC-4"};  // committed directory only has DC-5
  std::string error = ValidateScenario(config);
  EXPECT_NE(error.find("DC-4"), std::string::npos) << error;
  EXPECT_NE(error.find("did you mean 'DC-5'"), std::string::npos) << error;

  config = *FindScenario("fleet_sweep");
  config.trace_dir = "definitely/not/a/real/dir";
  error = ValidateScenario(config);
  EXPECT_NE(error.find("not a directory"), std::string::npos) << error;
}

// ISSUE-8 satellite: the trace manifest records the canonical fault plan of
// the capturing run, and replaying the directory under a different plan is
// a config error -- the recorded fleet and any goldens derived from it
// assume those exact injected events.
TEST(TraceReplayTest, ReplayRejectsMismatchedFaultPlan) {
  const std::string dir = FreshTempDir("faultplan");
  ScenarioConfig config = *FindScenario("reimage_storm");
  std::string error;
  ASSERT_TRUE(ApplyScenarioOverride(config, "fault_plan", "telemetry_blackout:100,200", &error))
      << error;
  ScenarioRunOptions options;
  options.seed = 17;
  options.scale = 0.05;
  options.threads = 2;
  options.dump_traces_dir = dir;
  RunScenario(config, options);
  {
    std::ifstream manifest(dir + "/MANIFEST.txt");
    const std::string text((std::istreambuf_iterator<char>(manifest)),
                           std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("fault_plan: telemetry_blackout:100,200"), std::string::npos)
        << text;
  }

  ScenarioConfig replay = config;
  replay.trace_dir = dir;
  EXPECT_EQ(ValidateScenario(replay), "");  // same plan: accepted
  // Same plan, different spelling: the comparison is canonical, not textual.
  ASSERT_TRUE(
      ApplyScenarioOverride(replay, "fault_plan", "telemetry_blackout:100.0,0200", &error))
      << error;
  EXPECT_EQ(ValidateScenario(replay), "");
  ASSERT_TRUE(ApplyScenarioOverride(replay, "fault_plan", "telemetry_blackout:100,300", &error))
      << error;
  error = ValidateScenario(replay);
  EXPECT_NE(error.find("fault_plan mismatch"), std::string::npos) << error;
  EXPECT_NE(error.find("telemetry_blackout:100,200"), std::string::npos) << error;
  replay.fault_plan = FaultPlan{};
  error = ValidateScenario(replay);
  EXPECT_NE(error.find("fault_plan mismatch"), std::string::npos) << error;
  std::filesystem::remove_all(dir);

  // Manifests written before the fault subsystem have no fault_plan line;
  // they read as "none", so faulted replays of legacy captures are rejected.
  ScenarioConfig legacy = *FindScenario("replay_regression");
  ASSERT_TRUE(ApplyScenarioOverride(legacy, "fault_plan", "dc_outage:10,20", &error)) << error;
  error = ValidateScenario(legacy);
  EXPECT_NE(error.find("fault_plan mismatch"), std::string::npos) << error;
}

TEST(DriverPipelineTest, SchedulingStageEmitsPerClassDiagnostics) {
  const ScenarioConfig* scenario = FindScenario("dc9_testbed");
  ASSERT_NE(scenario, nullptr);
  ScenarioRunOptions options;
  options.seed = 42;
  options.scale = 0.2;
  ScenarioRunResult run = RunScenario(*scenario, options);
  ASSERT_EQ(run.result.datacenters.size(), 1u);
  const DatacenterResult& dc = run.result.datacenters[0];
  ASSERT_TRUE(dc.has_scheduling);
  ASSERT_FALSE(dc.scheduling.class_diagnostics.empty());
  int64_t containers = 0;
  int64_t selections = 0;
  double contribution = 0.0;
  for (const SchedulingClassResult& cls : dc.scheduling.class_diagnostics) {
    EXPECT_FALSE(cls.label.empty());
    EXPECT_FALSE(cls.pattern.empty());
    EXPECT_LE(cls.kills, cls.containers);
    if (cls.containers > 0) {
      EXPECT_GT(cls.mean_lease_seconds, 0.0);
    }
    containers += cls.containers;
    selections += cls.selections;
    contribution += cls.rank_weight_contribution;
  }
  EXPECT_GT(containers, 0);
  EXPECT_GT(selections, 0);
  EXPECT_GT(contribution, 0.0);
  EXPECT_NE(run.json.find("\"class_diagnostics\""), std::string::npos);
  EXPECT_NE(run.json.find("\"rank_weight_contribution\""), std::string::npos);
}

}  // namespace
}  // namespace harvest
