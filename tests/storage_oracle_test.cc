// Oracle for the storage co-simulation's incremental NameNode accounting
// (the storage mirror of tests/rm_oracle_test.cc): drives randomized
// create / reimage / access / heal sequences over advancing simulation time
// and, after every operation, audits every incremental quantity -- the exact
// per-server replica indexes, the loss and
// under-replication running aggregates, the in-flight heal counts -- against
// a dense full rescan of the authoritative block map
// (NameNode::AuditStateForTest).
//
// A second suite proves the replay itself: RunStorageCosim (a two-cursor
// merge of reimages and accesses) must produce results exactly equal to a
// dense reference that replays the same shared timeline with the same seeds
// and audits by full rescan along the way, and every event of a timeline
// must lie at or before its horizon. Runs >= 1000 operations per placement
// kind.

#include "src/experiments/storage_cosim.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/cluster/datacenter.h"
#include "src/driver/scenario.h"
#include "src/fault/fault_plan.h"
#include "src/storage/name_node.h"
#include "src/trace/reimage.h"
#include "src/util/rng.h"

namespace harvest {
namespace {

constexpr int kOperationsPerKind = 1200;

// A small DC-9-profile fleet with real reimage schedules (the testbed
// builder does not materialize them).
Cluster BuildOracleCluster(double scale, uint64_t seed) {
  Rng build_rng(seed);
  BuildOptions options;
  options.trace_slots = kSlotsPerDay;
  options.reimage_months = 12;
  options.scale = scale;
  options.per_server_traces = false;
  return BuildCluster(DatacenterByName("DC-9"), options, build_rng);
}

void RunAccountingOracle(PlacementKind kind, uint64_t seed) {
  Cluster cluster = BuildOracleCluster(0.3, seed);
  NameNodeOptions options;
  options.replication = 3;
  Rng policy_rng(seed ^ 0x5eedULL);
  NameNode nn(&cluster, MakePlacementPolicy(kind, &cluster), options, &policy_rng);

  Rng op_rng(seed ^ 0x0badc0ffeeULL);
  double t = 0.0;
  int64_t creates = 0;
  int64_t reimages = 0;
  for (int op = 0; op < kOperationsPerKind; ++op) {
    // Advance time: mostly small steps, occasionally days (so heals queued
    // behind the 120 s/block throttle actually complete mid-sequence).
    t += op_rng.Bernoulli(0.1) ? op_rng.Uniform(0.0, 5.0 * 86400.0)
                               : op_rng.Uniform(0.0, 1800.0);
    const uint64_t what = op_rng.NextBounded(10);
    if (what < 4 || nn.num_blocks() == 0) {
      ServerId writer = static_cast<ServerId>(op_rng.NextBounded(cluster.num_servers()));
      nn.CreateBlock(writer, t);
      ++creates;
    } else if (what < 7) {
      ServerId victim = static_cast<ServerId>(op_rng.NextBounded(cluster.num_servers()));
      nn.OnReimage(victim, t);
      ++reimages;
    } else if (what < 9) {
      BlockId block = static_cast<BlockId>(
          op_rng.NextBounded(static_cast<uint64_t>(nn.num_blocks())));
      nn.ProcessRereplication(t);
      AccessResult result = nn.Access(block, t);
      // Re-derive the access outcome densely from the replica list.
      const auto& replicas = nn.ReplicaServers(block);
      if (nn.Lost(block) || replicas.empty()) {
        EXPECT_EQ(result, AccessResult::kMissing) << "op " << op;
      } else {
        bool any_free = false;
        for (ServerId s : replicas) {
          any_free = any_free || !nn.data_node(s).Busy(t);
        }
        EXPECT_EQ(result, any_free ? AccessResult::kServed : AccessResult::kFailed)
            << "op " << op;
      }
    } else {
      nn.ProcessRereplication(t);
    }

    std::string error;
    const bool audit_ok = nn.AuditStateForTest(&error);
    EXPECT_TRUE(audit_ok) << PlacementKindName(kind) << " op " << op << ": " << error;
    if (!audit_ok) {
      return;  // stop at the first desync
    }
  }
  // The mix actually exercised the hot paths.
  EXPECT_GT(creates, kOperationsPerKind / 5);
  EXPECT_GT(reimages, kOperationsPerKind / 8);
  EXPECT_GT(nn.stats().replicas_destroyed, 0);
  EXPECT_GT(nn.stats().rereplications_completed, 0);
  EXPECT_GE(kOperationsPerKind, 1000);
}

TEST(StorageOracleTest, IncrementalAccountingMatchesDenseRescanStock) {
  RunAccountingOracle(PlacementKind::kStock, 101);
}

TEST(StorageOracleTest, IncrementalAccountingMatchesDenseRescanHistory) {
  RunAccountingOracle(PlacementKind::kHistory, 202);
}

TEST(StorageOracleTest, IncrementalAccountingMatchesDenseRescanRandom) {
  RunAccountingOracle(PlacementKind::kRandom, 303);
}

TEST(StorageOracleTest, IncrementalAccountingMatchesDenseRescanGreedy) {
  RunAccountingOracle(PlacementKind::kGreedy, 404);
}

TEST(StorageOracleTest, IncrementalAccountingMatchesDenseRescanSoft) {
  RunAccountingOracle(PlacementKind::kSoft, 505);
}

// Correlated-failure oracle: the same audit discipline under whole-rack
// kills, ToR partition toggles, and heal-storm backpressure. Every bulk
// event (a rack's servers all reimaged at one instant) is followed by a full
// dense rescan.
void RunRackKillOracle(PlacementKind kind, uint64_t seed) {
  Cluster cluster = BuildOracleCluster(0.3, seed);
  std::vector<std::vector<ServerId>> rack_servers;
  for (const Server& server : cluster.servers()) {
    const size_t rack = static_cast<size_t>(server.rack);
    if (rack_servers.size() <= rack) {
      rack_servers.resize(rack + 1);
    }
    rack_servers[rack].push_back(server.id);
  }

  NameNodeOptions options;
  options.replication = 3;
  options.max_inflight_heals_per_shard = 4;
  options.heal_backoff_base_seconds = 600.0;
  options.heal_backoff_max_seconds = 7200.0;
  Rng policy_rng(seed ^ 0x5eedULL);
  NameNode nn(&cluster, MakePlacementPolicy(kind, &cluster), options, &policy_rng);

  Rng op_rng(seed ^ 0xfa17c0de5ULL);
  std::vector<bool> partitioned(rack_servers.size(), false);
  double t = 0.0;
  int64_t rack_kills = 0;
  int64_t partition_flips = 0;
  for (int op = 0; op < kOperationsPerKind; ++op) {
    t += op_rng.Bernoulli(0.1) ? op_rng.Uniform(0.0, 5.0 * 86400.0)
                               : op_rng.Uniform(0.0, 1800.0);
    const uint64_t what = op_rng.NextBounded(10);
    if (what < 3 || nn.num_blocks() == 0) {
      ServerId writer = static_cast<ServerId>(op_rng.NextBounded(cluster.num_servers()));
      nn.CreateBlock(writer, t);
    } else if (what < 5) {
      // Whole-rack kill: every server in one rack reimages at the same
      // instant -- the correlated bulk event the incremental aggregates and
      // heal lanes must absorb without desyncing.
      const size_t rack = static_cast<size_t>(
          op_rng.NextBounded(static_cast<uint64_t>(rack_servers.size())));
      for (ServerId victim : rack_servers[rack]) {
        nn.OnReimage(victim, t);
      }
      ++rack_kills;
    } else if (what < 7) {
      const size_t rack = static_cast<size_t>(
          op_rng.NextBounded(static_cast<uint64_t>(rack_servers.size())));
      partitioned[rack] = !partitioned[rack];
      nn.SetRackPartitioned(static_cast<RackId>(rack), partitioned[rack], t);
      ++partition_flips;
    } else if (what < 9) {
      BlockId block = static_cast<BlockId>(
          op_rng.NextBounded(static_cast<uint64_t>(nn.num_blocks())));
      nn.ProcessRereplication(t);
      nn.Access(block, t);
    } else {
      nn.ProcessRereplication(t);
    }

    std::string error;
    const bool audit_ok = nn.AuditStateForTest(&error);
    EXPECT_TRUE(audit_ok) << PlacementKindName(kind) << " op " << op << ": " << error;
    if (!audit_ok) {
      return;
    }
  }
  EXPECT_GT(rack_kills, kOperationsPerKind / 10);
  EXPECT_GT(partition_flips, kOperationsPerKind / 10);
  EXPECT_GT(nn.stats().replicas_destroyed, 0);
  EXPECT_GT(nn.heal_backlog_peak(), 0);
}

TEST(StorageOracleTest, RackKillOracleMatchesDenseRescanStock) {
  RunRackKillOracle(PlacementKind::kStock, 606);
}

TEST(StorageOracleTest, RackKillOracleMatchesDenseRescanHistory) {
  RunRackKillOracle(PlacementKind::kHistory, 707);
}

// Dense reference for the replay: the same shared timeline, replayed in a
// plain sorted two-cursor loop (time order, reimage before access on ties
// -- the co-sim's documented ordering contract) against a NameNode built
// from the same seeds, with a full-rescan audit every few events.
StorageCosimResult DenseReferenceReplay(const Cluster& cluster,
                                        const StorageTimeline& timeline,
                                        const StorageCosimOptions& options) {
  Rng writer_rng(options.writer_seed);
  Rng policy_rng(options.policy_seed);
  NameNodeOptions nn_options;
  nn_options.replication = options.replication;
  nn_options.primary_aware_access = options.primary_aware_access;
  nn_options.detection_delay_seconds = options.detection_delay_seconds;
  nn_options.rereplication_blocks_per_hour = options.rereplication_blocks_per_hour;
  NameNode nn(&cluster, MakePlacementPolicy(options.placement, &cluster), nn_options,
              &policy_rng);
  for (int64_t b = 0; b < options.num_blocks; ++b) {
    ServerId writer = static_cast<ServerId>(writer_rng.NextBounded(cluster.num_servers()));
    nn.CreateBlock(writer, 0.0);
  }
  const uint64_t live_blocks = static_cast<uint64_t>(nn.num_blocks());

  StorageCosimResult result;
  size_t r = 0;
  size_t a = 0;
  size_t processed = 0;
  while (r < timeline.reimages.size() || a < timeline.accesses.size()) {
    const bool reimage_first =
        r < timeline.reimages.size() &&
        (a >= timeline.accesses.size() ||
         timeline.reimages[r].first <= timeline.accesses[a].time_seconds);
    if (reimage_first) {
      nn.OnReimage(timeline.reimages[r].second, timeline.reimages[r].first);
      ++result.reimage_events;
      ++r;
    } else {
      if (live_blocks > 0) {
        nn.ProcessRereplication(timeline.accesses[a].time_seconds);
        nn.Access(static_cast<BlockId>(timeline.accesses[a].block_draw % live_blocks),
                  timeline.accesses[a].time_seconds);
      }
      ++a;
    }
    if (++processed % 64 == 0) {
      std::string error;
      EXPECT_TRUE(nn.AuditStateForTest(&error)) << "event " << processed << ": " << error;
    }
  }
  nn.ProcessRereplication(timeline.horizon_seconds + 30.0 * 24.0 * 3600.0);
  result.stats = nn.stats();
  result.lost_percent = 100.0 * result.stats.LossFraction();
  result.failed_access_percent = 100.0 * result.stats.FailedAccessFraction();
  result.under_replicated_blocks = nn.UnderReplicatedBlocks();
  return result;
}

void ExpectResultsEqual(const StorageCosimResult& replayed, const StorageCosimResult& dense,
                        const char* label) {
  EXPECT_EQ(replayed.stats.blocks_created, dense.stats.blocks_created) << label;
  EXPECT_EQ(replayed.stats.blocks_lost, dense.stats.blocks_lost) << label;
  EXPECT_EQ(replayed.stats.replicas_destroyed, dense.stats.replicas_destroyed) << label;
  EXPECT_EQ(replayed.stats.rereplications_completed, dense.stats.rereplications_completed)
      << label;
  EXPECT_EQ(replayed.stats.accesses, dense.stats.accesses) << label;
  EXPECT_EQ(replayed.stats.failed_accesses, dense.stats.failed_accesses) << label;
  EXPECT_EQ(replayed.stats.interfering_accesses, dense.stats.interfering_accesses) << label;
  EXPECT_EQ(replayed.under_replicated_blocks, dense.under_replicated_blocks) << label;
  EXPECT_EQ(replayed.reimage_events, dense.reimage_events) << label;
  EXPECT_DOUBLE_EQ(replayed.lost_percent, dense.lost_percent) << label;
  EXPECT_DOUBLE_EQ(replayed.failed_access_percent, dense.failed_access_percent) << label;
}

TEST(StorageCosimTest, ReplayMatchesDenseReferenceForEveryKind) {
  Cluster cluster = BuildOracleCluster(0.3, 9);
  StorageTimelineOptions timeline_options;
  timeline_options.reimage_horizon_seconds = 6.0 * kSecondsPerMonth;
  timeline_options.access_rate_per_hour = 25.0;  // reads riding the reimage timeline
  timeline_options.access_seed = 77;
  StorageTimeline timeline = BuildStorageTimeline(cluster, timeline_options);
  ASSERT_GT(timeline.reimages.size(), 0u);
  ASSERT_GT(timeline.accesses.size(), 1000u);

  for (PlacementKind kind : AllPlacementKinds()) {
    StorageCosimOptions options;
    options.placement = kind;
    options.replication = 3;
    options.num_blocks = 3000;
    options.writer_seed = 11;
    options.policy_seed = DerivedStreamSeed(11, PlacementKindName(kind));
    StorageCosimResult dense = DenseReferenceReplay(cluster, timeline, options);
    StorageCosimResult replayed = RunStorageCosim(cluster, timeline, options);
    ExpectResultsEqual(replayed, dense, PlacementKindName(kind));
    // The timeline did real damage and the namespace was populated.
    EXPECT_EQ(replayed.stats.blocks_created, 3000);
    EXPECT_GT(replayed.stats.replicas_destroyed, 0) << PlacementKindName(kind);
    EXPECT_GT(replayed.stats.accesses, 0) << PlacementKindName(kind);
  }
}

TEST(StorageCosimTest, WriterStreamIsSharedAcrossKindsAndPolicyStreamIsNot) {
  Cluster cluster = BuildOracleCluster(0.25, 21);
  StorageTimelineOptions timeline_options;
  timeline_options.reimage_horizon_seconds = 3.0 * kSecondsPerMonth;
  timeline_options.access_rate_per_hour = 10.0;
  timeline_options.access_seed = 5;
  StorageTimeline timeline = BuildStorageTimeline(cluster, timeline_options);

  StorageCosimOptions stock;
  stock.placement = PlacementKind::kStock;
  stock.num_blocks = 2000;
  stock.writer_seed = 31;
  stock.policy_seed = 100;
  StorageCosimOptions history = stock;
  history.placement = PlacementKind::kHistory;
  history.policy_seed = 200;

  StorageCosimResult a = RunStorageCosim(cluster, timeline, stock);
  StorageCosimResult b = RunStorageCosim(cluster, timeline, history);
  // Paired comparison: identical write workload, identical reimage schedule,
  // identical access schedule -- every cell sees the same events.
  EXPECT_EQ(a.stats.blocks_created, b.stats.blocks_created);
  EXPECT_EQ(a.stats.accesses, b.stats.accesses);
  EXPECT_EQ(a.reimage_events, b.reimage_events);
  // And the replay is deterministic: same options -> identical outcome.
  StorageCosimResult a2 = RunStorageCosim(cluster, timeline, stock);
  ExpectResultsEqual(a, a2, "repeat");
}

// RunStorageCosim runs every event of its timeline, where a replay that
// stops at `horizon_seconds` would drop the late ones: the two agree only
// while every reimage, access and partition edge lies at or before the
// horizon (a partition's end bounds its start: durations are positive).
void ExpectEventsWithinHorizon(const StorageTimeline& timeline,
                               const std::vector<RackPartitionInterval>& partitions,
                               const std::string& label) {
  const double horizon = timeline.horizon_seconds;
  for (const auto& [time, server] : timeline.reimages) {
    EXPECT_LE(time, horizon) << label << ": reimage of server " << server;
  }
  for (const StorageAccessEvent& access : timeline.accesses) {
    EXPECT_LE(access.time_seconds, horizon) << label << ": access";
  }
  for (const RackPartitionInterval& partition : partitions) {
    EXPECT_LE(partition.end, horizon) << label << ": partition of rack " << partition.rack;
  }
}

TEST(StorageCosimTest, TimelineHorizonCoversEveryEvent) {
  Cluster cluster = BuildOracleCluster(0.3, 9);
  // Poisson reads over the reimage horizon plus uniform reads over a longer
  // access horizon: the horizon is the later of the two.
  StorageTimelineOptions loaded;
  loaded.reimage_horizon_seconds = 2.0 * kSecondsPerMonth;
  loaded.access_rate_per_hour = 25.0;
  loaded.uniform_accesses = 2000;
  loaded.access_horizon_seconds = 3.0 * kSecondsPerMonth;
  loaded.access_seed = 13;
  const StorageTimeline timeline = BuildStorageTimeline(cluster, loaded);
  ASSERT_GT(timeline.reimages.size(), 0u);
  ASSERT_GT(timeline.accesses.size(), static_cast<size_t>(loaded.uniform_accesses));
  ExpectEventsWithinHorizon(timeline, {}, "poisson+uniform");

  // The fault presets' plans cover down intervals, a reimage wave and a ToR
  // partition. Each spec is compiled alone, so no fault's last edge hides
  // behind another's, and timed alone (the fault stage's timeline) and
  // merged into the loaded one.
  for (const char* preset : {"rack_outage", "partition_heal_storm"}) {
    FaultPlan plan;
    std::string error;
    ASSERT_TRUE(ParseFaultPlan(FindScenario(preset)->fault_plan, &plan, &error)) << error;
    for (const FaultSpec& spec : plan.specs) {
      const FaultTimeline faults = CompileFaultPlan(FaultPlan{{spec}}, cluster, 42);
      for (const StorageTimelineOptions& options : {StorageTimelineOptions{}, loaded}) {
        ExpectEventsWithinHorizon(BuildStorageTimeline(cluster, options, &faults),
                                  faults.partitions, preset);
      }
    }
  }
}

}  // namespace
}  // namespace harvest
