#include "src/fault/fault_plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/cluster/datacenter.h"
#include "src/util/rng.h"

namespace harvest {
namespace {

Cluster SmallTestbed(uint64_t seed) {
  Rng rng(seed);
  return BuildTestbedCluster(42, kSlotsPerDay, rng);
}

int NumRacks(const Cluster& cluster) {
  int max_rack = -1;
  for (const Server& server : cluster.servers()) {
    max_rack = std::max(max_rack, static_cast<int>(server.rack));
  }
  return max_rack + 1;
}

TEST(FaultPlanTest, EmptyAndNoneParseToEmptyPlan) {
  for (const char* text : {"", "none"}) {
    FaultPlan plan;
    std::string error;
    ASSERT_TRUE(ParseFaultPlan(text, &plan, &error)) << error;
    EXPECT_TRUE(plan.empty());
    EXPECT_EQ(CanonicalFaultPlan(plan), "none");
  }
}

TEST(FaultPlanTest, ParsesEveryKindAndRoundTripsCanonically) {
  const std::string text =
      "rack_outage:7200,1,7200+dc_outage:100,200+tor_partition:3600,2,10800+"
      "telemetry_blackout:3600,10800+reimage_wave:3600,0.3,1800";
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan(text, &plan, &error)) << error;
  ASSERT_EQ(plan.specs.size(), 5u);
  EXPECT_EQ(plan.specs[0].kind, FaultKind::kRackOutage);
  EXPECT_EQ(plan.specs[0].rack, 1);
  EXPECT_EQ(plan.specs[1].kind, FaultKind::kDcOutage);
  EXPECT_EQ(plan.specs[2].kind, FaultKind::kTorPartition);
  EXPECT_EQ(plan.specs[3].kind, FaultKind::kTelemetryBlackout);
  EXPECT_EQ(plan.specs[4].kind, FaultKind::kReimageWave);
  EXPECT_DOUBLE_EQ(plan.specs[4].fraction, 0.3);
  EXPECT_DOUBLE_EQ(plan.specs[4].spread_seconds, 1800.0);

  // Canonical text is a fixed point: parse(canonical(p)) == canonical(p).
  const std::string canonical = CanonicalFaultPlan(plan);
  FaultPlan reparsed;
  ASSERT_TRUE(ParseFaultPlan(canonical, &reparsed, &error)) << error;
  EXPECT_EQ(CanonicalFaultPlan(reparsed), canonical);
  EXPECT_EQ(canonical, text);
}

TEST(FaultPlanTest, CanonicalFormNormalizesNumberSpelling) {
  FaultPlan a;
  FaultPlan b;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan("rack_outage:7200.0,01,7200", &a, &error)) << error;
  ASSERT_TRUE(ParseFaultPlan("rack_outage:7200,1,7200.00", &b, &error)) << error;
  EXPECT_EQ(CanonicalFaultPlan(a), CanonicalFaultPlan(b));
}

TEST(FaultPlanTest, MistypedKindSuggestsClosestName) {
  FaultPlan plan;
  std::string error;
  EXPECT_FALSE(ParseFaultPlan("rack_outge:7200,1,7200", &plan, &error));
  EXPECT_NE(error.find("rack_outage"), std::string::npos) << error;
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  const char* bad[] = {
      "rack_outage",                    // missing arguments
      "rack_outage:7200,1",             // too few arguments
      "rack_outage:7200,1,7200,9",      // too many arguments
      "rack_outage:-1,1,7200",          // negative start
      "rack_outage:7200,1,0",           // zero duration
      "reimage_wave:3600,1.5,1800",     // fraction > 1
      "reimage_wave:3600,-0.1,1800",    // fraction < 0
      "rack_outage:abc,1,7200",         // non-numeric
      "+rack_outage:7200,1,7200",       // empty spec before '+'
      "rack_outage:100,1e30,100",       // rack does not fit int64
      "tor_partition:100,9.3e18,100",   // rack just above int64's range
      "tor_partition:100,9223372036854775808,100",  // rack == 2^63
      "rack_outage:1e-320,1,100",       // subnormal underflow
      "rack_outage:7200,1,7200,",       // trailing comma
      "rack_outage:7200,1,7200+",       // empty spec after '+'
  };
  for (const char* text : bad) {
    FaultPlan plan;
    std::string error;
    EXPECT_FALSE(ParseFaultPlan(text, &plan, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
  // An out-of-range rack names the field.
  FaultPlan plan;
  std::string error;
  EXPECT_FALSE(ParseFaultPlan("tor_partition:100,1e30,100", &plan, &error));
  EXPECT_NE(error.find("rack"), std::string::npos) << error;
}

TEST(FaultPlanTest, GrammarTableCoversEveryKind) {
  std::set<std::string> names;
  for (const auto& entry : FaultGrammar()) {
    names.insert(entry.name);
  }
  for (FaultKind kind :
       {FaultKind::kRackOutage, FaultKind::kDcOutage, FaultKind::kTorPartition,
        FaultKind::kTelemetryBlackout, FaultKind::kReimageWave}) {
    EXPECT_EQ(names.count(FaultKindName(kind)), 1u) << FaultKindName(kind);
  }
}

TEST(FaultPlanTest, RackOutageCompilesToPerServerDownIntervals) {
  Cluster cluster = SmallTestbed(1);
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan("rack_outage:7200,1,3600", &plan, &error)) << error;
  FaultTimeline timeline = CompileFaultPlan(plan, cluster, 99);

  int64_t in_rack = 0;
  for (const Server& server : cluster.servers()) {
    if (server.rack == 1) {
      ++in_rack;
    }
  }
  ASSERT_GT(in_rack, 0);
  ASSERT_EQ(timeline.down.size(), static_cast<size_t>(in_rack));
  for (const ServerDownInterval& interval : timeline.down) {
    EXPECT_DOUBLE_EQ(interval.start, 7200.0);
    EXPECT_DOUBLE_EQ(interval.end, 10800.0);
    EXPECT_EQ(cluster.server(interval.server).rack, 1);
  }
  ASSERT_EQ(timeline.events.size(), 1u);
  EXPECT_EQ(timeline.events[0].servers_affected, in_rack);
  // 1 rack x in_rack servers x 3600 seconds, clipped at a later horizon.
  EXPECT_DOUBLE_EQ(timeline.UnavailabilityServerSeconds(86400.0),
                   static_cast<double>(in_rack) * 3600.0);
  // Clipping: horizon inside the interval counts only the elapsed part.
  EXPECT_DOUBLE_EQ(timeline.UnavailabilityServerSeconds(9000.0),
                   static_cast<double>(in_rack) * 1800.0);
}

FaultTimeline Compile(const std::string& text, const Cluster& cluster) {
  FaultPlan plan;
  std::string error;
  EXPECT_TRUE(ParseFaultPlan(text, &plan, &error)) << text << ": " << error;
  return CompileFaultPlan(plan, cluster, 5);
}

// A server inside several outages at once is down once: its merged
// transitions flip it once each way, and unavailability counts it once.
TEST(FaultPlanTest, NestedOutagesCountEachServerOnce) {
  Cluster cluster = SmallTestbed(1);
  const size_t fleet = cluster.num_servers();

  // A rack outage inside a DC outage: the whole fleet for 7200 s.
  const FaultTimeline nested =
      Compile("dc_outage:3600,7200+rack_outage:7200,1,3600", cluster);
  EXPECT_DOUBLE_EQ(nested.UnavailabilityServerSeconds(86400.0),
                   static_cast<double>(fleet) * 7200.0);
  ASSERT_EQ(nested.server_transitions.size(), 2 * fleet);
  for (const FaultTransition& transition : nested.server_transitions) {
    EXPECT_DOUBLE_EQ(transition.time, transition.begins ? 3600.0 : 10800.0);
  }

  // The same rack outage twice is that outage once.
  const FaultTimeline once = Compile("rack_outage:7200,1,3600", cluster);
  const FaultTimeline twice = Compile("rack_outage:7200,1,3600+rack_outage:7200,1,3600", cluster);
  EXPECT_DOUBLE_EQ(twice.UnavailabilityServerSeconds(86400.0),
                   once.UnavailabilityServerSeconds(86400.0));
  ASSERT_EQ(twice.server_transitions.size(), once.server_transitions.size());
  for (size_t i = 0; i < once.server_transitions.size(); ++i) {
    EXPECT_EQ(twice.server_transitions[i].id, once.server_transitions[i].id);
    EXPECT_EQ(twice.server_transitions[i].begins, once.server_transitions[i].begins);
  }

  // Nested partitions of one rack flip it once each way.
  const FaultTimeline partitions =
      Compile("tor_partition:100,2,300+tor_partition:200,2,100", cluster);
  ASSERT_EQ(partitions.rack_transitions.size(), 2u);
  EXPECT_TRUE(partitions.rack_transitions[0].begins);
  EXPECT_DOUBLE_EQ(partitions.rack_transitions[0].time, 100.0);
  EXPECT_FALSE(partitions.rack_transitions[1].begins);
  EXPECT_DOUBLE_EQ(partitions.rack_transitions[1].time, 400.0);
}

// Abutting outages: at the shared instant each server comes back up and goes
// straight back down, transitions in (time, server) order.
TEST(FaultPlanTest, AbuttingOutagesRecoverBeforeFailingAgain) {
  Cluster cluster = SmallTestbed(1);
  const FaultTimeline timeline =
      Compile("rack_outage:100,1,100+rack_outage:200,1,100", cluster);
  const std::vector<FaultTransition>& transitions = timeline.server_transitions;
  ASSERT_EQ(transitions.size(), 2 * timeline.down.size());
  for (size_t i = 1; i < transitions.size(); ++i) {
    const FaultTransition& prev = transitions[i - 1];
    const FaultTransition& cur = transitions[i];
    EXPECT_TRUE(prev.time < cur.time || (prev.time == cur.time && prev.id < cur.id) ||
                (prev.time == cur.time && prev.id == cur.id && !prev.begins && cur.begins))
        << "transition " << i;
  }
  EXPECT_DOUBLE_EQ(timeline.UnavailabilityServerSeconds(86400.0),
                   static_cast<double>(timeline.down.size()) * 100.0);
}

TEST(FaultPlanTest, RackIndexWrapsModuloFleetRackCount) {
  Cluster cluster = SmallTestbed(1);
  const int racks = NumRacks(cluster);
  FaultPlan a;
  FaultPlan b;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan("rack_outage:7200,1,3600", &a, &error)) << error;
  ASSERT_TRUE(ParseFaultPlan("rack_outage:7200," + std::to_string(1 + racks) + ",3600",
                             &b, &error))
      << error;
  FaultTimeline ta = CompileFaultPlan(a, cluster, 7);
  FaultTimeline tb = CompileFaultPlan(b, cluster, 7);
  ASSERT_EQ(ta.down.size(), tb.down.size());
  for (size_t i = 0; i < ta.down.size(); ++i) {
    EXPECT_EQ(ta.down[i].server, tb.down[i].server);
  }
}

TEST(FaultPlanTest, DcOutageCoversWholeFleet) {
  Cluster cluster = SmallTestbed(2);
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan("dc_outage:100,50", &plan, &error)) << error;
  FaultTimeline timeline = CompileFaultPlan(plan, cluster, 3);
  EXPECT_EQ(timeline.down.size(), cluster.num_servers());
  EXPECT_EQ(timeline.events[0].servers_affected,
            static_cast<int64_t>(cluster.num_servers()));
}

TEST(FaultPlanTest, BlackoutOverlapQueries) {
  Cluster cluster = SmallTestbed(3);
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan("telemetry_blackout:1000,500", &plan, &error)) << error;
  FaultTimeline timeline = CompileFaultPlan(plan, cluster, 4);
  EXPECT_TRUE(timeline.InBlackout(1000.0));
  EXPECT_TRUE(timeline.InBlackout(1499.0));
  EXPECT_FALSE(timeline.InBlackout(999.0));
  EXPECT_TRUE(timeline.OverlapsBlackout(0.0, 1001.0));
  EXPECT_FALSE(timeline.OverlapsBlackout(0.0, 999.0));
  EXPECT_TRUE(timeline.OverlapsBlackout(1400.0, 2000.0));
  EXPECT_FALSE(timeline.OverlapsBlackout(1600.0, 2000.0));
  // Blackouts keep servers up: no unavailability is charged.
  EXPECT_DOUBLE_EQ(timeline.UnavailabilityServerSeconds(86400.0), 0.0);
}

TEST(FaultPlanTest, ReimageWaveIsSeedDeterministicAndSeedSensitive) {
  Cluster cluster = SmallTestbed(4);
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan("reimage_wave:3600,0.5,1800", &plan, &error)) << error;

  FaultTimeline first = CompileFaultPlan(plan, cluster, 11);
  FaultTimeline second = CompileFaultPlan(plan, cluster, 11);
  ASSERT_EQ(first.wave_reimages.size(), second.wave_reimages.size());
  for (size_t i = 0; i < first.wave_reimages.size(); ++i) {
    EXPECT_EQ(first.wave_reimages[i].server, second.wave_reimages[i].server);
    EXPECT_DOUBLE_EQ(first.wave_reimages[i].time, second.wave_reimages[i].time);
  }
  // Victim fraction and jitter bounds hold regardless of seed.
  const size_t expected =
      static_cast<size_t>(0.5 * static_cast<double>(cluster.num_servers()) + 0.5);
  EXPECT_NEAR(static_cast<double>(first.wave_reimages.size()),
              static_cast<double>(expected), 1.0);
  std::set<ServerId> victims;
  for (const WaveReimage& reimage : first.wave_reimages) {
    EXPECT_GE(reimage.time, 3600.0);
    EXPECT_LT(reimage.time, 3600.0 + 1800.0);
    victims.insert(reimage.server);
  }
  EXPECT_EQ(victims.size(), first.wave_reimages.size()) << "victims must be distinct";

  FaultTimeline other = CompileFaultPlan(plan, cluster, 12);
  bool differs = other.wave_reimages.size() != first.wave_reimages.size();
  for (size_t i = 0; !differs && i < first.wave_reimages.size(); ++i) {
    differs = other.wave_reimages[i].server != first.wave_reimages[i].server ||
              other.wave_reimages[i].time != first.wave_reimages[i].time;
  }
  EXPECT_TRUE(differs) << "different seeds should pick different waves";
}

TEST(FaultPlanTest, DownIntervalsSortedForReplay) {
  Cluster cluster = SmallTestbed(5);
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(
      ParseFaultPlan("rack_outage:7200,3,3600+dc_outage:100,50", &plan, &error))
      << error;
  FaultTimeline timeline = CompileFaultPlan(plan, cluster, 6);
  for (size_t i = 1; i < timeline.down.size(); ++i) {
    const ServerDownInterval& prev = timeline.down[i - 1];
    const ServerDownInterval& cur = timeline.down[i];
    EXPECT_TRUE(prev.start < cur.start ||
                (prev.start == cur.start && prev.server <= cur.server));
  }
}

}  // namespace
}  // namespace harvest
