// Name Node (paper §5.1, §5.4): manages the block namespace and the mapping
// of blocks to Data Nodes. NN-H integrates the history-based placement
// policy, excludes busy servers from the replica lists given to clients, and
// re-creates lost replicas after missed heartbeats without overloading the
// network (30 blocks/hour/server).
//
// Accounting is *incremental* so the storage co-simulation hot path is
// O(affected) per event instead of O(num_blocks) rescans: each DataNode
// keeps an exact index of the blocks it hosts (with the NameNode tracking
// every replica's slot in that index), re-replication is a queue keyed by
// heal-completion time, and loss / under-replication / failed-access
// aggregates are maintained at every transition. AuditStateForTest()
// recomputes all of it by dense rescan; tests/storage_oracle_test.cc drives
// randomized reimage/access sequences against it.
//
// Sharding (100k-server DCs): heal queues are split by rack into
// NameNodeOptions::shards contiguous rack ranges (keyed by the heal
// source's rack) and popped as a k-way merge on the (ready_time, seq) total
// order. Shard count is execution layout: it must never change an emitted
// byte -- the merge pops the exact order a single queue would, and the
// oracle test re-runs its randomized sequences at shard counts {1, 3, 8}
// against the dense reference.

#ifndef HARVEST_SRC_STORAGE_NAME_NODE_H_
#define HARVEST_SRC_STORAGE_NAME_NODE_H_

#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/storage/data_node.h"
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
  // Heal-queue shards (contiguous rack ranges), popped as one merged queue,
  // so shard count -- like thread count -- never changes an emitted byte.
  // 0 = auto from fleet size (FleetTable::AutoShardCount);
  // tests/storage_oracle_test.cc audits the sharded queues against the
  // dense single-shard reference.
  int shards = 1;
  // --- Heal-storm backpressure (src/fault graceful degradation) -----------
  // Bounded in-flight heal budget per shard: when > 0, a queued heal also
  // waits for the earliest of this many "lanes" on its source's shard, so a
  // mass-loss event produces a drain curve bounded by shards x budget x
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

  // Heal-backlog telemetry (the fault stage's drain curve): pending heals
  // right now, the high-water mark, and the ready_time at which the backlog
  // last drained to zero.
  int64_t heal_backlog() const { return heal_backlog_; }
  int64_t heal_backlog_peak() const { return heal_backlog_peak_; }
  double heal_backlog_cleared_at() const { return heal_backlog_cleared_at_; }

  // Number of live replicas of `block` right now.
  int LiveReplicas(BlockId block) const;
  const std::vector<ServerId>& ReplicaServers(BlockId block) const {
    return blocks_[static_cast<size_t>(block)].replicas;
  }
  bool Lost(BlockId block) const { return blocks_[static_cast<size_t>(block)].lost; }

  const StorageStats& stats() const { return stats_; }
  // Live blocks currently below their target replication (a running count).
  int64_t UnderReplicatedBlocks() const { return under_replicated_; }
  int num_shards() const { return static_cast<int>(shard_queues_.size()); }
  const PlacementPolicy& policy() const { return *policy_; }
  DataNode& data_node(ServerId id) { return data_nodes_[static_cast<size_t>(id)]; }
  int64_t num_blocks() const { return static_cast<int64_t>(blocks_.size()); }

  // Test hook (mirror of ResourceManager::AuditCachesForTest): recomputes
  // every incremental quantity -- the exact per-server indexes, the loss
  // and under-replication aggregates, in-flight heal counts -- by dense
  // rescan of the authoritative block map and compares exactly. Returns
  // false and fills `error` on the first mismatch.
  bool AuditStateForTest(std::string* error) const;

 private:
  struct BlockState {
    std::vector<ServerId> replicas;  // live replicas, in creation/heal order
    int inflight = 0;                // re-replications under way
    bool lost = false;
  };
  struct PendingRereplication {
    double ready_time = 0.0;
    BlockId block = 0;
    // kInvalidServer marks a probe entry: every surviving replica was behind
    // a partitioned ToR at queue time, so nothing is copied -- the pop just
    // re-evaluates reachability (with backoff).
    ServerId source = kInvalidServer;
    // Retries so far (source died, partitioned away, or no target); drives
    // the exponential backoff.
    int attempts = 0;
    // Global push sequence number: the (ready_time, seq) pair is a total
    // order over all pending heals. Heal completions tie constantly (every
    // block wiped by one reimage and sourced from a fresh server completes
    // at the same instant), and a heap's tie order is unspecified -- but the
    // sharded k-way merge needs the single- and multi-queue pop orders to be
    // THE SAME order, or the policy-RNG draw order (and every byte
    // downstream) would depend on the shard count. The total order is also
    // why any queue may hold a given heal.
    uint64_t seq = 0;
  };
  struct ReadyAfter {
    bool operator()(const PendingRereplication& a, const PendingRereplication& b) const {
      return a.ready_time > b.ready_time ||
             (a.ready_time == b.ready_time && a.seq > b.seq);
    }
  };
  // True when `a` pops before `b` under the (ready_time, seq) total order.
  static bool PopsBefore(const PendingRereplication& a, const PendingRereplication& b) {
    return a.ready_time < b.ready_time ||
           (a.ready_time == b.ready_time && a.seq < b.seq);
  }

  using HealQueue =
      std::priority_queue<PendingRereplication, std::vector<PendingRereplication>, ReadyAfter>;

  bool ServerHasSpace(ServerId server, BlockId block) const;
  // Queues one re-replication for `block`, choosing the least-loaded
  // reachable source. `attempts` counts prior tries (adds backoff).
  void QueueRereplication(BlockId block, double now, int attempts = 0);
  // Extra delay the k-th retry waits (0 for first tries / legacy config).
  double Backoff(int attempts) const;
  // Backlog bookkeeping around every queue push / pop.
  void NoteHealQueued();
  void NoteHealPopped(double ready_time);
  // Attaches a replica of `block` on `server`, updating the DN index.
  void AddReplicaToServer(BlockId block, ServerId server);
  bool IsUnderReplicated(const BlockState& state) const {
    return !state.lost && static_cast<int>(state.replicas.size()) < options_.replication;
  }
  // The heal-queue shard of `server` (contiguous rack ranges).
  int32_t ShardOf(ServerId server) const {
    return server_shard_[static_cast<size_t>(server)];
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
  // Earliest time each server can source its next re-replication.
  std::vector<double> source_free_at_;
  // Live blocks below target replication (loss is stats_.blocks_lost).
  int64_t under_replicated_ = 0;
  // --- Sharded heal queues ------------------------------------------------
  // Shard of each server, by rack: racks are split into num_shards()
  // contiguous ranges.
  std::vector<int32_t> server_shard_;
  // One heal queue per shard, keyed by the heal's source server (a probe
  // heal by its first surviving replica). ProcessRereplication pops the
  // global (ready_time, seq) minimum across shards, which is exactly the
  // order one merged queue would pop in.
  std::vector<HealQueue> shard_queues_;
  uint64_t next_heal_seq_ = 0;
  // --- Fault-injection state (src/fault) ----------------------------------
  int num_racks_ = 0;
  // Per-rack partition bits (lazily sized) + live counter; empty/0 on the
  // legacy path so IsRackPartitioned costs one integer compare.
  std::vector<uint8_t> rack_partitioned_;
  int64_t partitioned_racks_ = 0;
  // Bounded heal lanes (earliest-free completion times); empty when
  // max_inflight_heals_per_shard == 0. Lanes are grouped by a *canonical*
  // sharding derived from the fleet alone (AutoShardCount), never by
  // options.shards: the execution shard count is pure layout and must not
  // change the total in-flight budget -- results stay byte-identical across
  // nn_shards.
  std::vector<int32_t> server_heal_shard_;
  std::vector<std::vector<double>> heal_lanes_;
  // Queued heals now / high-water / last time the queue hit zero.
  int64_t heal_backlog_ = 0;
  int64_t heal_backlog_peak_ = 0;
  double heal_backlog_cleared_at_ = 0.0;
  StorageStats stats_;
  // Scratch for ProcessRereplication (keeps the heal path allocation-free).
  std::vector<ServerId> existing_scratch_;
};

}  // namespace harvest

#endif  // HARVEST_SRC_STORAGE_NAME_NODE_H_
