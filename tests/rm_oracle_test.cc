// Oracle for the ResourceManager's incremental accounting: drives randomized
// Allocate / Release / EnforceReserves sequences over advancing simulation
// time and, after every operation,
//
//   * audits every cached quantity (per-node availability, forecasts,
//     weights, per-class aggregates, Fenwick trees) against a naive full
//     rescan (ResourceManager::AuditCachesForTest), and
//   * checks that Allocate's Fenwick-sampled placements equal the historical
//     dense-scan algorithm (candidate snapshot + Rng::WeightedIndex + local
//     decrements) run on a copy of the RNG -- including that both consume
//     the RNG stream identically.
//
// Runs >= 1000 operations in each of PT and H modes, on two fleets and at
// several refresh worker counts.

#include "src/scheduler/resource_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/cluster/datacenter.h"
#include "src/cluster/fleet_table.h"
#include "src/util/rng.h"

namespace harvest {
namespace {

constexpr int kOperationsPerMode = 1200;

// The historical dense Allocate, reproduced verbatim as a reference: builds
// the candidate list, snapshots live room (and type-aware headroom in H
// mode), and draws with Rng::WeightedIndex, decrementing locally. Consumes
// `rng` exactly as often as the production path should.
std::vector<ServerId> ReferencePlacements(const ResourceManager& rm,
                                          const ContainerRequest& request, double t,
                                          Rng& rng) {
  std::vector<ServerId> placements;
  if (request.count <= 0) {
    return placements;
  }
  std::vector<ServerId> candidates;
  if (request.allowed_classes.empty()) {
    for (ServerId s = 0; s < static_cast<ServerId>(rm.num_nodes()); ++s) {
      candidates.push_back(s);
    }
  } else {
    for (int c : request.allowed_classes) {
      if (c >= 0 && c < rm.NumClasses()) {
        const auto& servers = rm.ClassServers(c);
        candidates.insert(candidates.end(), servers.begin(), servers.end());
      }
    }
  }

  constexpr double kBonus = 50.0;  // mirrors the RM's kTypeRoomBonus
  const double window = std::max(request.task_seconds, kMinForecastWindowSeconds);
  // The dense formula: live room balances the load; history grants a flat
  // eligibility bonus (x kBonus on the live room) when the forecast says
  // this request shape survives on the server -- never a weight
  // proportional to the forecast room itself.
  std::vector<double> weights(candidates.size(), 0.0);
  std::vector<Resources> room(candidates.size());
  std::vector<Resources> type_room(candidates.size());
  auto weight_of = [&request](const Resources& live, const Resources& type_avail) {
    if (!live.Fits(request.resources)) {
      return 0.0;
    }
    double weight = static_cast<double>(live.cores);
    if (request.history_aware && type_avail.Fits(request.resources)) {
      weight += kBonus * static_cast<double>(live.cores);
    }
    return weight;
  };
  for (size_t i = 0; i < candidates.size(); ++i) {
    const NodeManager& node = rm.node(candidates[i]);
    room[i] = node.AvailableForSecondary(t);
    if (request.history_aware) {
      type_room[i] = node.AvailableForTask(t, window);
    }
    weights[i] = weight_of(room[i], type_room[i]);
  }

  for (int n = 0; n < request.count; ++n) {
    int pick = rng.WeightedIndex(weights);
    if (pick < 0) {
      break;
    }
    size_t idx = static_cast<size_t>(pick);
    placements.push_back(candidates[idx]);
    room[idx] -= request.resources;
    type_room[idx] -= request.resources;
    weights[idx] = weight_of(room[idx], type_room[idx]);
  }
  return placements;
}

// Naive recomputation of the class aggregates through the public query
// surface, at the exact query time (the audit hook checks the same
// invariants at the cache's own timestamp; this checks the served values).
void ExpectClassAggregatesMatchNaive(const ResourceManager& rm, double t) {
  for (int c = 0; c < rm.NumClasses(); ++c) {
    const auto& servers = rm.ClassServers(c);
    int naive_cores = 0;
    for (ServerId s : servers) {
      naive_cores += rm.node(s).AvailableForSecondary(t).cores;
    }
    EXPECT_EQ(rm.ClassAvailableCores(c, t), naive_cores) << "class " << c << " at t=" << t;
  }
}

// The oracle's two fleets. The testbed's per-server traces make every
// telemetry group a single server. The DC-scale fleet shares one trace per
// tenant, so its groups span many servers and the refresh's per-worker
// server ranges cut through them.
enum class Fleet { kTestbed, kSharedTraces };

Cluster BuildOracleFleet(Fleet fleet, uint64_t seed) {
  Rng build_rng(seed);
  if (fleet == Fleet::kTestbed) {
    return BuildTestbedCluster(48, kSlotsPerDay, build_rng);
  }
  BuildOptions options;
  options.trace_slots = kSlotsPerDay;
  options.reimage_months = 1;
  options.scale = 0.05;
  options.per_server_traces = false;
  Cluster cluster = BuildCluster(DatacenterByName("DC-9"), options, build_rng);
  const FleetTable table(cluster);
  EXPECT_LT(static_cast<size_t>(table.num_groups()) * 4, table.num_servers())
      << "the shared-trace fleet should have multi-server telemetry groups";
  return cluster;
}

void RunOracle(SchedulerMode mode, uint64_t seed, Fleet fleet, int workers) {
  SCOPED_TRACE(testing::Message() << (fleet == Fleet::kTestbed ? "testbed" : "shared traces")
                                  << ", " << workers << " workers");
  Cluster cluster = BuildOracleFleet(fleet, seed);
  // The worker count is execution layout: every placement, aggregate, and
  // RNG draw below must be identical to the dense serial reference no
  // matter how the refresh is split.
  ResourceManager rm(&cluster, mode, kDefaultReserve, workers);
  if (mode == SchedulerMode::kHistory) {
    // Deterministic 4-class striping: enough classes to exercise labeled
    // segments without depending on the clustering service.
    std::vector<int> classes(cluster.num_servers());
    for (size_t s = 0; s < classes.size(); ++s) {
      classes[s] = static_cast<int>(s % 4);
    }
    rm.SetServerClasses(std::move(classes));
  }

  Rng op_rng(seed ^ 0x0badc0ffeeULL);  // drives the operation mix
  Rng rng(seed ^ 0x5eedULL);           // the RM's placement stream
  std::vector<Container> live;
  double t = 0.0;
  int allocates = 0;

  for (int op = 0; op < kOperationsPerMode; ++op) {
    // Advance time; roughly half the steps stay inside the current 120 s
    // telemetry slot, the rest cross one or more slot boundaries.
    t += op_rng.Uniform(0.0, 250.0);
    const uint64_t kind = op_rng.NextBounded(10);
    if (kind < 5 || live.empty()) {
      ContainerRequest request;
      request.job = op;
      request.count = static_cast<int>(op_rng.UniformInt(1, 8));
      request.resources =
          op_rng.Bernoulli(0.8) ? Resources{1, 2048} : Resources{2, 4096};
      request.task_seconds = op_rng.Uniform(20.0, 300.0);
      if (op_rng.Bernoulli(0.1)) {
        request.task_seconds = op_rng.Uniform(3.5, 6.0) * 3600.0;  // above the window floor
      }
      request.history_aware = mode == SchedulerMode::kHistory;
      if (mode == SchedulerMode::kHistory && op_rng.Bernoulli(0.7)) {
        // A random non-empty subset of distinct classes, in random order.
        std::vector<int> all = {0, 1, 2, 3};
        op_rng.Shuffle(all);
        size_t take = static_cast<size_t>(op_rng.UniformInt(1, 4));
        request.allowed_classes.assign(all.begin(), all.begin() + take);
      }

      Rng reference_rng = rng;  // copy: the reference must not advance the real stream
      std::vector<ServerId> expected = ReferencePlacements(rm, request, t, reference_rng);
      std::vector<Container> placed = rm.Allocate(request, t, rng);
      ASSERT_EQ(placed.size(), expected.size()) << "op " << op;
      for (size_t i = 0; i < placed.size(); ++i) {
        EXPECT_EQ(placed[i].server, expected[i]) << "op " << op << " placement " << i;
      }
      // Both paths must have consumed the RNG stream identically.
      EXPECT_EQ(rng.Next(), reference_rng.Next()) << "RNG streams diverged at op " << op;
      live.insert(live.end(), placed.begin(), placed.end());
      ++allocates;
    } else if (kind < 8) {
      size_t idx = static_cast<size_t>(op_rng.NextBounded(live.size()));
      rm.Release(live[idx]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {
      std::vector<Container> killed = rm.EnforceReserves(t);
      for (const Container& container : killed) {
        live.erase(std::remove_if(live.begin(), live.end(),
                                  [&container](const Container& c) {
                                    return c.id == container.id;
                                  }),
                   live.end());
      }
    }

    std::string error;
    ASSERT_TRUE(rm.AuditCachesForTest(&error)) << "op " << op << ": " << error;
    ExpectClassAggregatesMatchNaive(rm, t);
  }
  // The mix actually exercised the hot path.
  EXPECT_GT(allocates, kOperationsPerMode / 4);
  EXPECT_GE(kOperationsPerMode, 1000);
}

// The H-mode forecast refresh is a sliding-window maximum (one monotonic
// deque per trace) instead of the historical O(servers x window) rescan per
// slot. AuditCachesForTest recomputes every node's forecast with the naive
// per-sample scan (NodeManager::ForecastPrimaryCores) at the cached slot, so
// this drives the window through every transition shape -- sub-slot steps,
// single-slot advances, multi-slot jumps, jumps past the whole window, and
// window-size (sample-count) switches -- and asserts exact equivalence.
TEST(RmOracleTest, SlidingWindowForecastMatchesNaiveScanAcrossJumpsAndWindows) {
  Rng build_rng(7);
  Cluster cluster = BuildTestbedCluster(24, kSlotsPerDay, build_rng);
  ResourceManager rm(&cluster, SchedulerMode::kHistory, kDefaultReserve, /*workers=*/3);
  Rng rng(99);
  const double steps[] = {30.0,    120.0,   360.0,  5000.0, 45000.0,
                          130000.0, 50.0,   240.0,  11.0,   86400.0};
  double t = 0.0;
  for (int op = 0; op < 60; ++op) {
    t += steps[static_cast<size_t>(op) % (sizeof(steps) / sizeof(steps[0]))];
    ContainerRequest request;
    request.job = op;
    request.count = 1;
    request.resources = Resources{1, 2048};
    // Alternate forecast windows: the 3 h floor and a 5.5 h long-task
    // window, so the deque is rebuilt on sample-count changes too.
    request.task_seconds = (op % 3 == 0) ? 5.5 * 3600.0 : 60.0;
    request.history_aware = true;
    rm.Allocate(request, t, rng);
    std::string error;
    ASSERT_TRUE(rm.AuditCachesForTest(&error)) << "op " << op << " t=" << t << ": " << error;
  }
}

// Each mode runs the full oracle on both fleets at 1, 3 and 8 refresh
// workers: the dense reference is serial, so any byte of divergence in
// placements, aggregates, or RNG stream position pins a bug in the split.
void RunOracleEverywhere(SchedulerMode mode, uint64_t seed) {
  for (Fleet fleet : {Fleet::kTestbed, Fleet::kSharedTraces}) {
    for (int workers : {1, 3, 8}) {
      RunOracle(mode, seed, fleet, workers);
    }
  }
}

TEST(RmOracleTest, IncrementalAccountingMatchesFullRescanPtMode) {
  RunOracleEverywhere(SchedulerMode::kPrimaryAware, 101);
}

TEST(RmOracleTest, IncrementalAccountingMatchesFullRescanHistoryMode) {
  RunOracleEverywhere(SchedulerMode::kHistory, 202);
}

TEST(RmOracleTest, StockModeStaysConsistentToo) {
  RunOracleEverywhere(SchedulerMode::kStock, 303);
}

}  // namespace
}  // namespace harvest
