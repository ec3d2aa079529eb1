#include "src/storage/name_node.h"

#include <algorithm>

#include "src/cluster/fleet_table.h"
#include "src/util/logging.h"

namespace harvest {

NameNode::NameNode(const Cluster* cluster, std::unique_ptr<PlacementPolicy> policy,
                   NameNodeOptions options, Rng* rng)
    : cluster_(cluster), policy_(std::move(policy)), options_(options), rng_(rng) {
  data_nodes_.reserve(cluster->num_servers());
  source_free_at_.assign(cluster->num_servers(), 0.0);
  RackId num_racks = 0;
  for (const auto& server : cluster->servers()) {
    data_nodes_.emplace_back(&server, server.harvestable_blocks);
    num_racks = std::max(num_racks, server.rack + 1);
  }
  num_racks_ = static_cast<int>(num_racks);
  if (options_.max_inflight_heals_per_shard > 0) {
    // The lane grouping is a model parameter, derived from the fleet alone.
    const int heal_shards = FleetTable::AutoShardCount(cluster->num_servers());
    server_heal_shard_.reserve(cluster->num_servers());
    for (const auto& server : cluster->servers()) {
      server_heal_shard_.push_back(static_cast<int32_t>(
          num_racks == 0
              ? 0
              : static_cast<int64_t>(server.rack) * heal_shards / num_racks));
    }
    heal_lanes_.assign(
        static_cast<size_t>(heal_shards),
        std::vector<double>(static_cast<size_t>(options_.max_inflight_heals_per_shard),
                            0.0));
  }
}

double NameNode::Backoff(int attempts) const {
  if (attempts <= 0 || options_.heal_backoff_base_seconds <= 0.0) {
    return 0.0;
  }
  // Exact doubling (binary FP), capped: retry k waits base * 2^(k-1).
  double backoff = options_.heal_backoff_base_seconds;
  for (int i = 1; i < attempts && backoff < options_.heal_backoff_max_seconds; ++i) {
    backoff *= 2.0;
  }
  return std::min(backoff, options_.heal_backoff_max_seconds);
}

void NameNode::NoteHealQueued() {
  ++heal_backlog_;
  heal_backlog_peak_ = std::max(heal_backlog_peak_, heal_backlog_);
}

void NameNode::NoteHealPopped(double ready_time) {
  --heal_backlog_;
  if (heal_backlog_ == 0) {
    heal_backlog_cleared_at_ = ready_time;
  }
}

void NameNode::SetRackPartitioned(RackId rack, bool partitioned, double now) {
  // Heals due before the transition complete under the old reachability.
  ProcessRereplication(now);
  if (rack_partitioned_.empty()) {
    rack_partitioned_.assign(static_cast<size_t>(std::max(num_racks_, 1)), 0);
  }
  uint8_t& bit = rack_partitioned_[static_cast<size_t>(rack)];
  if ((bit != 0) == partitioned) {
    return;
  }
  bit = partitioned ? 1 : 0;
  partitioned_racks_ += partitioned ? 1 : -1;
}

bool NameNode::ServerHasSpace(ServerId server, BlockId block) const {
  const DataNode& dn = data_nodes_[static_cast<size_t>(server)];
  if (!dn.HasSpace()) {
    return false;
  }
  if (block >= 0) {
    const std::span<const ServerId> replicas = Replicas(block);
    if (std::find(replicas.begin(), replicas.end(), server) != replicas.end()) {
      return false;
    }
  }
  return true;
}

void NameNode::AddReplicaToServer(BlockId block, ServerId server) {
  BlockState& state = blocks_[static_cast<size_t>(block)];
  HARVEST_CHECK(state.live < options_.replication)
      << "block " << block << " would exceed " << options_.replication << " replicas";
  data_nodes_[static_cast<size_t>(server)].AddReplica(block);
  replica_slots_[FirstSlot(block) + static_cast<size_t>(state.live++)] = server;
}

BlockId NameNode::CreateBlock(ServerId writer, double now) {
  (void)now;
  BlockId id = static_cast<BlockId>(blocks_.size());
  auto has_space = [this](ServerId s) { return ServerHasSpace(s, -1); };
  std::vector<ServerId> placed = policy_->Place(writer, options_.replication, has_space, *rng_);
  // De-duplicate defensively; a policy must not double-place but the NN is
  // the last line of defense for the invariant.
  std::sort(placed.begin(), placed.end());
  placed.erase(std::unique(placed.begin(), placed.end()), placed.end());
  if (placed.empty()) {
    return -1;
  }
  blocks_.emplace_back();
  replica_slots_.resize(replica_slots_.size() + static_cast<size_t>(options_.replication),
                        kInvalidServer);
  for (ServerId s : placed) {
    AddReplicaToServer(id, s);
  }
  ++stats_.blocks_created;
  if (IsUnderReplicated(blocks_.back())) {
    ++under_replicated_;
  }
  return id;
}

AccessResult NameNode::Access(BlockId block, double now) {
  ++stats_.accesses;
  const std::span<const ServerId> replicas = Replicas(block);
  if (replicas.empty()) {
    ++stats_.failed_accesses;
    return AccessResult::kMissing;
  }
  for (ServerId s : replicas) {
    if (!data_nodes_[static_cast<size_t>(s)].Busy(now)) {
      return AccessResult::kServed;
    }
  }
  // Every replica is on a busy server.
  if (options_.primary_aware_access) {
    ++stats_.failed_accesses;
    return AccessResult::kFailed;
  }
  ++stats_.interfering_accesses;
  return AccessResult::kServedInterfering;
}

void NameNode::QueueRereplication(BlockId block, double now, int attempts) {
  BlockState& state = blocks_[static_cast<size_t>(block)];
  const std::span<const ServerId> replicas = Replicas(block);
  if (replicas.empty()) {
    return;  // nothing to copy from; the block is gone
  }
  const double delay = options_.detection_delay_seconds + Backoff(attempts);
  // Pick the reachable source replica that frees up first, then push its
  // availability forward by one throttle interval (30 blocks/hour/server ->
  // 120 s each). Replicas behind a partitioned ToR cannot source a copy.
  ServerId best = kInvalidServer;
  for (ServerId s : replicas) {
    if (IsPartitioned(s)) {
      continue;
    }
    if (best == kInvalidServer ||
        source_free_at_[static_cast<size_t>(s)] < source_free_at_[static_cast<size_t>(best)]) {
      best = s;
    }
  }
  if (best == kInvalidServer) {
    // Every surviving replica is partitioned away: queue a probe entry.
    // Nothing is copied, no lane or throttle slot is consumed -- the pop
    // just re-checks reachability (with backoff).
    ++state.inflight;
    heal_queue_.Push(PendingHeal{now + delay, block, kInvalidServer, attempts});
    NoteHealQueued();
    return;
  }
  const double interval = 3600.0 / options_.rereplication_blocks_per_hour;
  double start = std::max(now + delay, source_free_at_[static_cast<size_t>(best)]);
  const size_t lane_shard =
      heal_lanes_.empty() ? 0
                          : static_cast<size_t>(
                                server_heal_shard_[static_cast<size_t>(best)]);
  size_t lane = 0;
  if (!heal_lanes_.empty()) {
    // Bounded in-flight budget: the copy also waits for the earliest free
    // lane of the source's canonical lane group (ties break to the lowest
    // lane index).
    std::vector<double>& lanes = heal_lanes_[lane_shard];
    for (size_t i = 1; i < lanes.size(); ++i) {
      if (lanes[i] < lanes[lane]) {
        lane = i;
      }
    }
    start = std::max(start, lanes[lane]);
  }
  double done = start + interval;
  source_free_at_[static_cast<size_t>(best)] = done;
  if (!heal_lanes_.empty()) {
    heal_lanes_[lane_shard][lane] = done;
  }
  ++state.inflight;
  heal_queue_.Push(PendingHeal{done, block, best, attempts});
  NoteHealQueued();
}

void NameNode::OnReimage(ServerId server, double now) {
  // Re-replications due before this wipe complete first; the queue is
  // processed in time order so sources are validated consistently.
  ProcessRereplication(now);

  DataNode& dn = data_nodes_[static_cast<size_t>(server)];
  // The index is exact: every entry is a live replica of a distinct block.
  // Detach them from the block map first, then drop the whole index at once
  // (cheaper than per-entry swap-removes that would only shuffle a list
  // about to be cleared).
  const int replication = options_.replication;
  for (BlockId block : dn.blocks()) {
    BlockState& state = blocks_[static_cast<size_t>(block)];
    const int live = state.live;
    ServerId* slots = replica_slots_.data() + FirstSlot(block);
    int index = 0;
    while (index < live && slots[index] != server) {
      ++index;
    }
    HARVEST_CHECK(index < live)
        << "DN index out of sync: block " << block << " not on server " << server;
    // Ordered erase (<= replication entries): replica order is part of the
    // deterministic tie-breaking in source selection.
    std::copy(slots + index + 1, slots + live, slots + index);
    state.live = live - 1;
    ++stats_.replicas_destroyed;
    if (state.live == 0) {
      // The last live replica died. In-flight copies sourced from destroyed
      // replicas cannot complete: the data is unrecoverable.
      ++stats_.blocks_lost;
      if (live < replication) {
        --under_replicated_;
      }
      continue;
    }
    if (live == replication) {
      ++under_replicated_;
    }
    QueueRereplication(block, now);
  }
  dn.WipeAll();
}

void NameNode::ProcessRereplication(double now) {
  while (!heal_queue_.empty() && heal_queue_.next_ready_time() <= now) {
    const PendingHeal pending = heal_queue_.Pop();
    NoteHealPopped(pending.ready_time);
    BlockState& state = blocks_[static_cast<size_t>(pending.block)];
    --state.inflight;
    const std::span<const ServerId> replicas = Replicas(pending.block);
    if (replicas.empty()) {
      continue;  // lost
    }
    // The copy succeeds only if the source still holds a live replica at
    // completion time (a reimage in between invalidates it) AND is still
    // reachable (a ToR partition that closed mid-copy drops it). Probe
    // entries (source == kInvalidServer) always take this retry path:
    // std::find misses, so IsPartitioned is never asked about the sentinel.
    bool source_alive =
        std::find(replicas.begin(), replicas.end(), pending.source) != replicas.end();
    bool source_usable = source_alive && !IsPartitioned(pending.source);
    if (!source_usable) {
      QueueRereplication(pending.block, pending.ready_time, pending.attempts + 1);
      continue;
    }
    if (state.live >= options_.replication) {
      continue;  // already healed (e.g., by an earlier queued copy)
    }
    // Destination: the placement policy picks a target diverse against the
    // surviving replicas (HDFS-H preserves Algorithm 2's environment and
    // row/column constraints; stock HDFS re-runs its rack rules). Servers
    // behind a partitioned ToR cannot receive the copy.
    auto has_space = [this, &pending](ServerId s) {
      return s != pending.source && !IsPartitioned(s) && ServerHasSpace(s, pending.block);
    };
    // Order the existing list so the source leads (it acts as the writer in
    // the default policy).
    std::vector<ServerId>& existing = existing_scratch_;
    existing.clear();
    existing.push_back(pending.source);
    for (ServerId s : replicas) {
      if (s != pending.source) {
        existing.push_back(s);
      }
    }
    ServerId destination = policy_->PlaceAdditional(existing, has_space, *rng_);
    if (destination == kInvalidServer) {
      if (partitioned_racks_ > 0) {
        // Targets may exist once the partition heals: retry with backoff.
        // Without partitions this is the legacy "cluster too full" case and
        // the block simply stays under-replicated.
        QueueRereplication(pending.block, pending.ready_time, pending.attempts + 1);
      }
      continue;
    }
    AddReplicaToServer(pending.block, destination);
    ++stats_.rereplications_completed;
    if (state.live < options_.replication) {
      QueueRereplication(pending.block, pending.ready_time);
    } else {
      // Healed back to target.
      --under_replicated_;
    }
  }
}

bool NameNode::AuditStateForTest(std::string* error) const {
  auto fail = [error](const std::string& message) {
    if (error != nullptr) {
      *error = message;
    }
    return false;
  };
  // Dense rescan of the authoritative block map.
  int64_t lost = 0;
  int64_t under = 0;
  int64_t inflight_total = 0;
  std::vector<int64_t> per_server(data_nodes_.size(), 0);
  for (size_t b = 0; b < blocks_.size(); ++b) {
    const BlockState& state = blocks_[b];
    if (state.live < 0 || state.live > options_.replication) {
      return fail("block " + std::to_string(b) + " has " + std::to_string(state.live) +
                  " live replicas, outside [0, " + std::to_string(options_.replication) + "]");
    }
    if (state.live == 0) {
      ++lost;
    } else if (state.live < options_.replication) {
      ++under;
    }
    const std::span<const ServerId> replicas = Replicas(static_cast<BlockId>(b));
    for (size_t i = 0; i < replicas.size(); ++i) {
      const size_t s = static_cast<size_t>(replicas[i]);
      ++per_server[s];
      for (size_t j = i + 1; j < replicas.size(); ++j) {
        if (replicas[j] == replicas[i]) {
          return fail("block " + std::to_string(b) + " has duplicate replicas on server " +
                      std::to_string(s));
        }
      }
    }
    inflight_total += state.inflight;
    if (state.inflight < 0) {
      return fail("negative inflight count for block " + std::to_string(b));
    }
  }
  // Index exactness: every DN entry is a live replica of that block here,
  // and the index cardinality matches the rescan (together with the
  // per-block duplicate check above this is set equality).
  for (size_t s = 0; s < data_nodes_.size(); ++s) {
    const DataNode& dn = data_nodes_[s];
    if (dn.used_blocks() != per_server[s]) {
      return fail("DN index size mismatch for server " + std::to_string(s) + ": index " +
                  std::to_string(dn.used_blocks()) + " vs rescan " +
                  std::to_string(per_server[s]));
    }
    for (BlockId block : dn.blocks()) {
      const std::span<const ServerId> replicas = Replicas(block);
      if (std::find(replicas.begin(), replicas.end(), static_cast<ServerId>(s)) ==
          replicas.end()) {
        return fail("DN index of server " + std::to_string(s) + " holds stale block " +
                    std::to_string(block));
      }
    }
  }
  if (lost != stats_.blocks_lost) {
    return fail("loss aggregate mismatch: " + std::to_string(stats_.blocks_lost) +
                " cached vs " + std::to_string(lost) + " rescanned");
  }
  if (under != under_replicated_) {
    return fail("under-replication aggregate mismatch: " + std::to_string(under_replicated_) +
                " cached vs " + std::to_string(under) + " rescanned");
  }
  const int64_t queued = heal_queue_.size();
  if (inflight_total != queued) {
    return fail("inflight sum " + std::to_string(inflight_total) +
                " does not match total queued heals " + std::to_string(queued));
  }
  if (heal_backlog_ != queued) {
    return fail("heal backlog counter " + std::to_string(heal_backlog_) +
                " does not match queued heals " + std::to_string(queued));
  }
  if (heal_backlog_peak_ < heal_backlog_) {
    return fail("heal backlog peak below the current backlog");
  }
  if (!rack_partitioned_.empty()) {
    int64_t partitioned = 0;
    for (uint8_t bit : rack_partitioned_) {
      partitioned += bit != 0 ? 1 : 0;
    }
    if (partitioned != partitioned_racks_) {
      return fail("partitioned-rack counter " + std::to_string(partitioned_racks_) +
                  " does not match the bitmap (" + std::to_string(partitioned) + ")");
    }
  }
  return true;
}

}  // namespace harvest
