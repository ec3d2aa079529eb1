// Name Node (paper §5.1, §5.4): manages the block namespace and the mapping
// of blocks to Data Nodes. NN-H integrates the history-based placement
// policy, excludes busy servers from the replica lists given to clients, and
// re-creates lost replicas after missed heartbeats without overloading the
// network (30 blocks/hour/server).
//
// Accounting is *incremental* so the storage co-simulation hot path is
// O(affected) per event instead of O(num_blocks) rescans: each DataNode
// keeps an exact index of the blocks it hosts, re-replication is one queue
// keyed by heal-completion time (heal_queue.h), and loss /
// under-replication / failed-access aggregates are maintained at every
// transition. AuditStateForTest() recomputes all of it by dense rescan;
// tests/storage_oracle_test.cc drives randomized reimage/access sequences
// against it.
//
// Layout: every block owns `replication` fixed-stride slots in one flat
// array, its live replicas first in creation/heal order, so a block touch
// reads one short run of memory and no block allocates.

#ifndef HARVEST_SRC_STORAGE_NAME_NODE_H_
#define HARVEST_SRC_STORAGE_NAME_NODE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/storage/data_node.h"
#include "src/storage/heal_queue.h"
#include "src/storage/placement.h"
#include "src/util/rng.h"

namespace harvest {

// Outcome of a client block access.
enum class AccessResult {
  kServed = 0,          // a replica on a non-busy server served the access
  kServedInterfering,   // all replicas busy; primary-unaware DN served anyway
  kFailed,              // all replicas busy; primary-aware DNs denied
  kMissing,             // the block has no live replicas (lost or in re-replication)
};

struct NameNodeOptions {
  // Desired replication for new blocks (paper evaluates 3 and 4).
  int replication = 3;
  // Primary-aware DNs deny accesses on busy servers (HDFS-PT / HDFS-H);
  // stock DNs serve them and interfere with the primary.
  bool primary_aware_access = true;
  // Delay between a replica's destruction and the NN noticing (missed
  // heartbeats; paper: "after a few missing heartbeats").
  double detection_delay_seconds = 300.0;
  // Re-replication throttle per source server (paper §5.1).
  double rereplication_blocks_per_hour = 30.0;
  // --- Heal-storm backpressure (src/fault graceful degradation) -----------
  // Bounded in-flight heal budget per lane group: when > 0, a queued heal
  // also waits for the earliest of this many "lanes" of its source's group
  // (contiguous rack ranges; one group per 4,096 servers, 1 to 16), so a
  // mass-loss event produces a drain curve bounded by groups x budget x
  // throttle instead of an unbounded burst. 0 = unlimited (legacy).
  int max_inflight_heals_per_shard = 0;
  // Exponential backoff for retried heals (source died / partitioned away /
  // no target): retry k waits base * 2^(k-1) extra seconds, capped at the
  // max. base 0 = instant retry (legacy behavior, byte-identical).
  double heal_backoff_base_seconds = 0.0;
  double heal_backoff_max_seconds = 7200.0;
};

struct StorageStats {
  int64_t blocks_created = 0;
  int64_t blocks_lost = 0;
  int64_t replicas_destroyed = 0;
  int64_t rereplications_completed = 0;
  int64_t accesses = 0;
  int64_t failed_accesses = 0;
  int64_t interfering_accesses = 0;

  double LossFraction() const {
    return blocks_created == 0
               ? 0.0
               : static_cast<double>(blocks_lost) / static_cast<double>(blocks_created);
  }
  double FailedAccessFraction() const {
    return accesses == 0 ? 0.0
                         : static_cast<double>(failed_accesses) / static_cast<double>(accesses);
  }
};

class NameNode {
 public:
  // `policy` decides replica destinations; the cluster must outlive the NN.
  NameNode(const Cluster* cluster, std::unique_ptr<PlacementPolicy> policy,
           NameNodeOptions options, Rng* rng);

  // Creates one block written from `writer`. Returns the block id, or -1 when
  // placement failed completely (no space anywhere).
  BlockId CreateBlock(ServerId writer, double now);

  // Client read at time `now`: the NN excludes busy servers from the replica
  // list; with primary-aware DNs the access fails when every replica is busy.
  AccessResult Access(BlockId block, double now);

  // The disk of `server` was reimaged at `now`: all replicas on it are
  // destroyed; re-replication of the survivors is queued after the detection
  // delay, throttled per source server. Lost blocks are counted when their
  // last replica dies before re-replication completes. Touches only the
  // blocks hosted on `server` (the DataNode index is exact).
  void OnReimage(ServerId server, double now);

  // Completes all re-replications scheduled at or before `now`. Must be
  // called with non-decreasing `now` (the simulators drive it off the event
  // queue / reimage order).
  void ProcessRereplication(double now);

  // ToR partition (src/fault): a partitioned rack keeps serving local
  // accesses but is invisible to replication -- its replicas cannot source
  // heals and its servers cannot receive them. Heals due before the
  // transition are settled first (the call processes the queue up to `now`).
  void SetRackPartitioned(RackId rack, bool partitioned, double now);
  bool IsRackPartitioned(RackId rack) const {
    return partitioned_racks_ > 0 && rack_partitioned_[static_cast<size_t>(rack)] != 0;
  }

  // Heal-backlog telemetry (the fault stage's drain curve): the high-water
  // mark of pending heals, and the ready_time at which the backlog last
  // drained to zero.
  int64_t heal_backlog_peak() const { return heal_backlog_peak_; }
  double heal_backlog_cleared_at() const { return heal_backlog_cleared_at_; }

  // Number of live replicas of `block` right now.
  int LiveReplicas(BlockId block) const { return blocks_[static_cast<size_t>(block)].live; }
  // The live replicas of `block`, in creation/heal order.
  std::vector<ServerId> ReplicaServers(BlockId block) const {
    const std::span<const ServerId> replicas = Replicas(block);
    return {replicas.begin(), replicas.end()};
  }
  // A block is lost once its last live replica dies; it never gains one back.
  bool Lost(BlockId block) const { return LiveReplicas(block) == 0; }

  const StorageStats& stats() const { return stats_; }
  // Live blocks currently below their target replication (a running count).
  int64_t UnderReplicatedBlocks() const { return under_replicated_; }
  const DataNode& data_node(ServerId id) const { return data_nodes_[static_cast<size_t>(id)]; }
  int64_t num_blocks() const { return static_cast<int64_t>(blocks_.size()); }

  // Test hook (mirror of ResourceManager::AuditCachesForTest): recomputes
  // every incremental quantity -- the exact per-server indexes, the two
  // space columns, the loss and under-replication aggregates, in-flight heal
  // counts -- by dense rescan of the authoritative block map, the DataNodes
  // and the partition bits, and compares exactly. Returns false and fills
  // `error` on the first mismatch.
  bool AuditStateForTest(std::string* error) const;

 private:
  struct BlockState {
    int32_t live = 0;      // live replicas: the block's first `live` slots
    int32_t inflight = 0;  // re-replications under way
  };

  // Index of `block`'s first slot in replica_slots_.
  size_t FirstSlot(BlockId block) const {
    return static_cast<size_t>(block) * static_cast<size_t>(options_.replication);
  }
  // `block`'s live replicas: its first `live` slots.
  std::span<const ServerId> Replicas(BlockId block) const {
    return {replica_slots_.data() + FirstSlot(block),
            static_cast<size_t>(blocks_[static_cast<size_t>(block)].live)};
  }
  // Queues one re-replication for `block`, choosing the least-loaded
  // reachable source. `attempts` counts prior tries (adds backoff).
  void QueueRereplication(BlockId block, double now, int attempts = 0);
  // Extra delay the k-th retry waits (0 for first tries / legacy config).
  double Backoff(int attempts) const;
  // Backlog bookkeeping around every queue push / pop.
  void NoteHealQueued();
  void NoteHealPopped(double ready_time);
  // Attaches a replica of `block` on `server`, updating the DN index and,
  // when the server fills, its space columns.
  void AddReplicaToServer(BlockId block, ServerId server);
  // Recomputes `server`'s bytes in both space columns.
  void RefreshSpaceColumns(ServerId server);
  bool IsUnderReplicated(const BlockState& state) const {
    return state.live > 0 && state.live < options_.replication;
  }
  // True when the server sits behind a partitioned ToR (cheap integer
  // compare on the legacy no-partition path).
  bool IsPartitioned(ServerId server) const {
    return partitioned_racks_ > 0 && IsRackPartitioned(cluster_->server(server).rack);
  }

  const Cluster* cluster_;
  std::unique_ptr<PlacementPolicy> policy_;
  NameNodeOptions options_;
  Rng* rng_;
  std::vector<DataNode> data_nodes_;
  std::vector<BlockState> blocks_;
  // options_.replication slots per block (see Replicas()).
  std::vector<ServerId> replica_slots_;
  // Earliest time each server can source its next re-replication.
  std::vector<double> source_free_at_;
  // The space columns the placement policies read (ServerSpaceFilter::open),
  // one byte per server: below capacity (CreateBlock's; block creation
  // ignores partitions), and below capacity behind an unpartitioned ToR (the
  // heal target's). They change only when a server fills, when a reimage
  // empties it, and when its rack's partition flips.
  std::vector<uint8_t> open_for_create_;
  std::vector<uint8_t> open_for_heal_;
  // Live blocks below target replication (loss is stats_.blocks_lost).
  int64_t under_replicated_ = 0;
  HealQueue heal_queue_;
  // --- Fault-injection state (src/fault) ----------------------------------
  int num_racks_ = 0;
  // Per-rack partition bits (lazily sized) + live counter; empty/0 on the
  // legacy path so IsRackPartitioned costs one integer compare.
  std::vector<uint8_t> rack_partitioned_;
  int64_t partitioned_racks_ = 0;
  // Bounded heal lanes (earliest-free completion times); empty when
  // max_inflight_heals_per_shard == 0. Lanes are grouped by contiguous rack
  // ranges whose count the fleet alone sets (see the constructor).
  std::vector<int32_t> server_heal_shard_;
  std::vector<std::vector<double>> heal_lanes_;
  // Queued heals now / high-water / last time the queue hit zero.
  int64_t heal_backlog_ = 0;
  int64_t heal_backlog_peak_ = 0;
  double heal_backlog_cleared_at_ = 0.0;
  StorageStats stats_;
  // Scratch for CreateBlock's placed list and ProcessRereplication's
  // existing list (keeps the heal path allocation-free).
  std::vector<ServerId> server_scratch_;
};

}  // namespace harvest

#endif  // HARVEST_SRC_STORAGE_NAME_NODE_H_
