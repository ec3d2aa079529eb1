// Event-driven storage co-simulation (paper §6.4-§6.5, Figs 15-16). One
// reimage/access timeline is built per datacenter and shared read-only by
// every cell of the placement-kind x replication grid; each cell replays the
// timeline in time order (a two-cursor merge of its reimage and access
// streams) against its own NameNode, with the NameNode's incremental
// accounting doing O(affected) work per event.
//
// RNG pairing, so Stock-vs-H (and every other kind pair) stays a paired
// comparison like the paper's simulator:
//   * the timeline (reimage schedule + access times/targets) is drawn once
//     per DC and shared by all cells;
//   * the block-writer sequence comes from `writer_seed`, which cells at the
//     same replication share -- every kind sees the identical write workload;
//   * only the placement policy's own draws come from `policy_seed`, the one
//     stream that legitimately differs per kind.

#ifndef HARVEST_SRC_EXPERIMENTS_STORAGE_COSIM_H_
#define HARVEST_SRC_EXPERIMENTS_STORAGE_COSIM_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/fault/fault_plan.h"
#include "src/storage/name_node.h"

namespace harvest {

// The five placement flavors of the evaluation grid.
enum class PlacementKind { kStock = 0, kHistory = 1, kRandom = 2, kGreedy = 3, kSoft = 4 };

// Display name, e.g. "HDFS-H"; stable across the JSON schema and goldens.
const char* PlacementKindName(PlacementKind kind);

// Parses a knob token ("stock", "history", "random", "greedy", "soft");
// false when unknown.
bool ParsePlacementKind(std::string_view token, PlacementKind* kind);

// All five kinds in enum order (the default grid axis).
const std::vector<PlacementKind>& AllPlacementKinds();

// Builds the policy implementation for one grid cell.
std::unique_ptr<PlacementPolicy> MakePlacementPolicy(PlacementKind kind,
                                                     const Cluster* cluster);

// --- Shared timeline ------------------------------------------------------

struct StorageAccessEvent {
  double time_seconds = 0.0;
  // Uniform 64-bit draw; a cell maps it onto its namespace as
  // block_draw % num_blocks (namespaces can differ in size when a policy
  // fails a placement completely).
  uint64_t block_draw = 0;
};

struct StorageTimeline {
  // (time, server) pairs, time-sorted; ties ordered by server id.
  std::vector<std::pair<double, ServerId>> reimages;
  // Time-sorted client accesses.
  std::vector<StorageAccessEvent> accesses;
  double horizon_seconds = 0.0;
};

struct StorageTimelineOptions {
  // Reimage events are taken from the cluster's per-server schedules up to
  // this horizon; 0 disables reimages (pure availability runs).
  double reimage_horizon_seconds = 0.0;
  // Fixed number of accesses spread uniformly over `access_horizon_seconds`
  // (the Fig-16 methodology), plus / or a Poisson access process at
  // `access_rate_per_hour` over the reimage horizon (the storage_stress
  // axis). Either may be zero.
  int64_t uniform_accesses = 0;
  double access_horizon_seconds = 0.0;
  double access_rate_per_hour = 0.0;
  uint64_t access_seed = 1;
};

// `faults` (optional) merges the compiled fault timeline into the reimage
// stream: a server down interval wipes its replicas at the outage start and
// again at the end (the server comes back reimaged, so heals that targeted
// it mid-outage are void), and reimage waves land as plain reimages. The
// horizon stretches to cover the last fault edge, so every reimage, access
// and partition edge lies at or before it. nullptr = the legacy
// timeline, byte-identical to before faults existed.
StorageTimeline BuildStorageTimeline(const Cluster& cluster,
                                     const StorageTimelineOptions& options,
                                     const FaultTimeline* faults = nullptr);

// --- One grid cell --------------------------------------------------------

struct StorageCosimOptions {
  PlacementKind placement = PlacementKind::kHistory;
  int replication = 3;
  int64_t num_blocks = 10000;
  bool primary_aware_access = true;
  double detection_delay_seconds = 300.0;
  double rereplication_blocks_per_hour = 30.0;
  // Shared across kinds at one replication (paired write workload).
  uint64_t writer_seed = 1;
  // Per-kind policy stream.
  uint64_t policy_seed = 1;
  // NameNode accounting shards (0 = auto from fleet size). Execution layout
  // only: byte-identical results for any value.
  int nn_shards = 0;
  // Compiled fault timeline (not owned; must outlive the run), or nullptr
  // for a fault-free cell. The timeline's partitions are applied in replay
  // time order; its reimages must already be merged into the shared
  // StorageTimeline (BuildStorageTimeline does both from the same pointer).
  const FaultTimeline* faults = nullptr;
  // Heal-storm backpressure mirrors of NameNodeOptions (see name_node.h):
  // bounded in-flight heals per shard with exponential retry backoff. The
  // defaults keep the legacy unbounded / instant-retry behavior.
  int max_inflight_heals_per_shard = 0;
  double heal_backoff_base_seconds = 0.0;
  double heal_backoff_max_seconds = 7200.0;
};

struct StorageCosimResult {
  StorageStats stats;
  double lost_percent = 0.0;
  double failed_access_percent = 0.0;
  int64_t under_replicated_blocks = 0;
  int64_t reimage_events = 0;
  // Heal-queue drain curve (fault runs): the deepest the pending-heal
  // backlog ever got, and the completion time of the heal that last emptied
  // it (0 when the queue never filled).
  int64_t heal_backlog_peak = 0;
  double heal_backlog_cleared_at = 0.0;
};

// Replays every event of `timeline` against a fresh namespace of
// `options.num_blocks` blocks. Cells are independent: run them as parallel
// tasks freely (the timeline is read-only).
StorageCosimResult RunStorageCosim(const Cluster& cluster, const StorageTimeline& timeline,
                                   const StorageCosimOptions& options);

}  // namespace harvest

#endif  // HARVEST_SRC_EXPERIMENTS_STORAGE_COSIM_H_
