#include "src/experiments/storage_cosim.h"

#include <algorithm>
#include <limits>
#include <tuple>

#include "src/util/rng.h"

namespace harvest {

const char* PlacementKindName(PlacementKind kind) {
  switch (kind) {
    case PlacementKind::kStock:
      return "HDFS-Stock";
    case PlacementKind::kHistory:
      return "HDFS-H";
    case PlacementKind::kRandom:
      return "HDFS-Random";
    case PlacementKind::kGreedy:
      return "HDFS-Greedy";
    case PlacementKind::kSoft:
      return "HDFS-H(soft)";
  }
  return "unknown";
}

bool ParsePlacementKind(std::string_view token, PlacementKind* kind) {
  if (token == "stock") {
    *kind = PlacementKind::kStock;
  } else if (token == "history") {
    *kind = PlacementKind::kHistory;
  } else if (token == "random") {
    *kind = PlacementKind::kRandom;
  } else if (token == "greedy") {
    *kind = PlacementKind::kGreedy;
  } else if (token == "soft") {
    *kind = PlacementKind::kSoft;
  } else {
    return false;
  }
  return true;
}

const std::vector<PlacementKind>& AllPlacementKinds() {
  static const std::vector<PlacementKind> kinds = {
      PlacementKind::kStock, PlacementKind::kHistory, PlacementKind::kRandom,
      PlacementKind::kGreedy, PlacementKind::kSoft};
  return kinds;
}

std::unique_ptr<PlacementPolicy> MakePlacementPolicy(PlacementKind kind,
                                                     const Cluster* cluster) {
  switch (kind) {
    case PlacementKind::kStock:
      return std::make_unique<StockPlacement>(cluster);
    case PlacementKind::kHistory:
      return std::make_unique<HistoryPlacement>(cluster);
    case PlacementKind::kRandom:
      return std::make_unique<RandomPlacement>(cluster);
    case PlacementKind::kGreedy: {
      ReplicaPlacer::Options options;
      options.greedy_best_first = true;
      return std::make_unique<HistoryPlacement>(cluster, options);
    }
    case PlacementKind::kSoft: {
      ReplicaPlacer::Options options;
      options.soft_constraints = true;
      return std::make_unique<HistoryPlacement>(cluster, options);
    }
  }
  return nullptr;
}

StorageTimeline BuildStorageTimeline(const Cluster& cluster,
                                     const StorageTimelineOptions& options,
                                     const FaultTimeline* faults) {
  StorageTimeline timeline;
  timeline.horizon_seconds =
      std::max(options.reimage_horizon_seconds, options.access_horizon_seconds);

  if (options.reimage_horizon_seconds > 0.0) {
    for (const auto& server : cluster.servers()) {
      for (double t : cluster.ReimageTimes(server.id)) {
        if (t < options.reimage_horizon_seconds) {
          timeline.reimages.emplace_back(t, server.id);
        }
      }
    }
  }
  if (faults != nullptr && !faults->empty()) {
    // A down interval is a paired wipe: replicas vanish when the power does,
    // and the server re-joins reimaged (anything healed *onto* it mid-outage
    // is void). Wave reimages are ordinary reimages at their drawn times.
    for (const ServerDownInterval& interval : faults->down) {
      timeline.reimages.emplace_back(interval.start, interval.server);
      timeline.reimages.emplace_back(interval.end, interval.server);
      timeline.horizon_seconds = std::max(timeline.horizon_seconds, interval.end);
    }
    for (const WaveReimage& wave : faults->wave_reimages) {
      timeline.reimages.emplace_back(wave.time, wave.server);
      timeline.horizon_seconds = std::max(timeline.horizon_seconds, wave.time);
    }
    for (const RackPartitionInterval& partition : faults->partitions) {
      timeline.horizon_seconds = std::max(timeline.horizon_seconds, partition.end);
    }
  }
  std::sort(timeline.reimages.begin(), timeline.reimages.end());

  Rng rng(options.access_seed);
  if (options.uniform_accesses > 0 && options.access_horizon_seconds > 0.0) {
    timeline.accesses.reserve(static_cast<size_t>(options.uniform_accesses));
    for (int64_t a = 0; a < options.uniform_accesses; ++a) {
      StorageAccessEvent event;
      event.time_seconds = rng.NextDouble() * options.access_horizon_seconds;
      event.block_draw = rng.Next();
      timeline.accesses.push_back(event);
    }
  }
  if (options.access_rate_per_hour > 0.0 && options.reimage_horizon_seconds > 0.0) {
    const double rate_per_second = options.access_rate_per_hour / 3600.0;
    double t = rng.Exponential(rate_per_second);
    while (t < options.reimage_horizon_seconds) {
      StorageAccessEvent event;
      event.time_seconds = t;
      event.block_draw = rng.Next();
      timeline.accesses.push_back(event);
      t += rng.Exponential(rate_per_second);
    }
  }
  std::stable_sort(timeline.accesses.begin(), timeline.accesses.end(),
                   [](const StorageAccessEvent& a, const StorageAccessEvent& b) {
                     return a.time_seconds < b.time_seconds;
                   });
  return timeline;
}

StorageCosimResult RunStorageCosim(const Cluster& cluster, const StorageTimeline& timeline,
                                   const StorageCosimOptions& options) {
  Rng writer_rng(options.writer_seed);
  Rng policy_rng(options.policy_seed);
  NameNodeOptions nn_options;
  nn_options.replication = options.replication;
  nn_options.primary_aware_access = options.primary_aware_access;
  nn_options.detection_delay_seconds = options.detection_delay_seconds;
  nn_options.rereplication_blocks_per_hour = options.rereplication_blocks_per_hour;
  nn_options.max_inflight_heals_per_shard = options.max_inflight_heals_per_shard;
  nn_options.heal_backoff_base_seconds = options.heal_backoff_base_seconds;
  nn_options.heal_backoff_max_seconds = options.heal_backoff_max_seconds;
  NameNode name_node(&cluster, MakePlacementPolicy(options.placement, &cluster), nn_options,
                     &policy_rng);

  // Populate the namespace at t = 0: blocks written from random servers
  // (batch jobs run everywhere, so writers are spread fleet-wide). The
  // writer stream is independent of the policy stream, so every grid cell
  // sees the identical write workload.
  for (int64_t b = 0; b < options.num_blocks; ++b) {
    ServerId writer = static_cast<ServerId>(writer_rng.NextBounded(cluster.num_servers()));
    name_node.CreateBlock(writer, 0.0);
  }
  const uint64_t live_blocks = static_cast<uint64_t>(name_node.num_blocks());

  // ToR partition edges in time order: +1 enters a partition, -1 leaves it.
  // A per-rack depth counter composes overlapping intervals.
  struct RackTransition {
    double time = 0.0;
    RackId rack = 0;
    int delta = 0;
  };
  std::vector<RackTransition> partition_edges;
  std::vector<int> rack_depth;
  if (options.faults != nullptr && !options.faults->partitions.empty()) {
    RackId max_rack = 0;
    for (const RackPartitionInterval& partition : options.faults->partitions) {
      partition_edges.push_back({partition.start, partition.rack, +1});
      partition_edges.push_back({partition.end, partition.rack, -1});
      max_rack = std::max(max_rack, partition.rack);
    }
    std::sort(partition_edges.begin(), partition_edges.end(),
              [](const RackTransition& a, const RackTransition& b) {
                return std::tie(a.time, a.rack, a.delta) <
                       std::tie(b.time, b.rack, b.delta);
              });
    rack_depth.assign(static_cast<size_t>(max_rack) + 1, 0);
  }
  size_t partition_cursor = 0;
  auto apply_partitions_through = [&](double now) {
    while (partition_cursor < partition_edges.size() &&
           partition_edges[partition_cursor].time <= now) {
      const RackTransition& edge = partition_edges[partition_cursor++];
      int& depth = rack_depth[static_cast<size_t>(edge.rack)];
      const bool was = depth > 0;
      depth += edge.delta;
      if (was != (depth > 0)) {
        name_node.SetRackPartitioned(edge.rack, depth > 0, edge.time);
      }
    }
  };

  // Replay the shared timeline as a two-cursor merge, each event doing only
  // the NameNode's O(affected) work. Ordering contract, which the oracle's
  // dense reference mirrors: events run in time order, a reimage runs
  // before an access at the same timestamp, and partition edges due by an
  // event's time apply before it. Re-replication completions ride the
  // NameNode's own completion-time queue, drained up to `now` at every
  // event. Every event lies at or before the timeline's horizon
  // (BuildStorageTimeline stretches the horizon over them).
  StorageCosimResult result;
  size_t r = 0;
  size_t a = 0;
  while (r < timeline.reimages.size() || a < timeline.accesses.size()) {
    const bool reimage_first =
        r < timeline.reimages.size() &&
        (a >= timeline.accesses.size() ||
         timeline.reimages[r].first <= timeline.accesses[a].time_seconds);
    const double now =
        reimage_first ? timeline.reimages[r].first : timeline.accesses[a].time_seconds;
    apply_partitions_through(now);
    if (reimage_first) {
      name_node.OnReimage(timeline.reimages[r++].second, now);
      ++result.reimage_events;
    } else {
      const StorageAccessEvent& event = timeline.accesses[a++];
      if (live_blocks > 0) {
        name_node.ProcessRereplication(now);
        name_node.Access(static_cast<BlockId>(event.block_draw % live_blocks), now);
      }
    }
  }
  // Partition edges past the last timeline event still gate the drain: a
  // partition must lift at its own time before retried heals can pick the
  // rack's servers again.
  apply_partitions_through(std::numeric_limits<double>::infinity());
  // Let the tail of the re-replication queue drain.
  name_node.ProcessRereplication(timeline.horizon_seconds + 30.0 * 24.0 * 3600.0);

  result.stats = name_node.stats();
  result.lost_percent = 100.0 * result.stats.LossFraction();
  result.failed_access_percent = 100.0 * result.stats.FailedAccessFraction();
  result.under_replicated_blocks = name_node.UnderReplicatedBlocks();
  result.heal_backlog_peak = name_node.heal_backlog_peak();
  result.heal_backlog_cleared_at = name_node.heal_backlog_cleared_at();
  return result;
}

}  // namespace harvest
