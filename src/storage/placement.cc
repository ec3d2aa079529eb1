#include "src/storage/placement.h"

#include <algorithm>

namespace harvest {

namespace {

bool AlreadyChosen(std::span<const ServerId> replicas, ServerId server) {
  return std::find(replicas.begin(), replicas.end(), server) != replicas.end();
}

// Picks a random server from `pool` passing `has_space` and not already in
// `replicas`; kInvalidServer if none. Samples without building a filtered
// copy when the pool is large.
ServerId PickFrom(const std::vector<ServerId>& pool, std::span<const ServerId> replicas,
                  const ServerSpaceFilter& has_space, Rng& rng) {
  if (pool.empty()) {
    return kInvalidServer;
  }
  // A few random probes first (cheap, succeeds on non-full clusters)...
  for (int probe = 0; probe < 8; ++probe) {
    ServerId candidate = pool[rng.NextBounded(pool.size())];
    if (!AlreadyChosen(replicas, candidate) && has_space(candidate)) {
      return candidate;
    }
  }
  // ...then an exhaustive pass from a random offset.
  size_t offset = rng.NextBounded(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    ServerId candidate = pool[(offset + i) % pool.size()];
    if (!AlreadyChosen(replicas, candidate) && has_space(candidate)) {
      return candidate;
    }
  }
  return kInvalidServer;
}

}  // namespace

ServerId PlacementPolicy::PlaceAdditional(std::span<const ServerId> existing,
                                          std::span<const uint8_t> open, Rng& rng) const {
  if (existing.empty()) {
    return kInvalidServer;
  }
  const std::span<const ServerId> placed =
      Place(existing[0], static_cast<int>(existing.size()) + 1,
            ServerSpaceFilter{open, existing}, rng);
  for (ServerId s : placed) {
    if (!AlreadyChosen(existing, s)) {
      return s;
    }
  }
  return kInvalidServer;
}

StockPlacement::StockPlacement(const Cluster* cluster) : cluster_(cluster) {
  RackId max_rack = 0;
  for (const auto& server : cluster->servers()) {
    max_rack = std::max(max_rack, server.rack);
  }
  rack_servers_.assign(static_cast<size_t>(max_rack) + 1, {});
  all_servers_.reserve(cluster->num_servers());
  for (const auto& server : cluster->servers()) {
    rack_servers_[static_cast<size_t>(server.rack)].push_back(server.id);
    all_servers_.push_back(server.id);
  }
}

std::span<const ServerId> StockPlacement::Place(ServerId writer, int replication,
                                                const ServerSpaceFilter& has_space,
                                                Rng& rng) const {
  std::vector<ServerId>& replicas = placed_;
  replicas.clear();
  const RackId writer_rack = cluster_->server(writer).rack;

  // Replica 1: the writer's server.
  if (has_space(writer)) {
    replicas.push_back(writer);
  }
  // Replica 2: another server in the writer's rack.
  if (static_cast<int>(replicas.size()) < replication) {
    ServerId pick = PickFrom(rack_servers_[static_cast<size_t>(writer_rack)], replicas,
                             has_space, rng);
    if (pick != kInvalidServer) {
      replicas.push_back(pick);
    }
  }
  // Replica 3 and beyond: random servers on remote racks, falling back to
  // any rack when remote racks are full.
  while (static_cast<int>(replicas.size()) < replication) {
    ServerId pick = kInvalidServer;
    for (int probe = 0; probe < 16 && pick == kInvalidServer; ++probe) {
      size_t rack = rng.NextBounded(rack_servers_.size());
      if (static_cast<RackId>(rack) == writer_rack || rack_servers_[rack].empty()) {
        continue;
      }
      ServerId candidate = rack_servers_[rack][rng.NextBounded(rack_servers_[rack].size())];
      if (!AlreadyChosen(replicas, candidate) && has_space(candidate)) {
        pick = candidate;
      }
    }
    if (pick == kInvalidServer) {
      // Exhaustive fallback over all servers.
      pick = PickFrom(all_servers_, replicas, has_space, rng);
    }
    if (pick == kInvalidServer) {
      break;
    }
    replicas.push_back(pick);
  }
  return replicas;
}

RandomPlacement::RandomPlacement(const Cluster* cluster) : cluster_(cluster) {
  all_servers_.reserve(cluster->num_servers());
  for (const auto& server : cluster->servers()) {
    all_servers_.push_back(server.id);
  }
}

std::span<const ServerId> RandomPlacement::Place(ServerId writer, int replication,
                                                 const ServerSpaceFilter& has_space,
                                                 Rng& rng) const {
  std::vector<ServerId>& replicas = placed_;
  replicas.clear();
  if (has_space(writer)) {
    replicas.push_back(writer);
  }
  while (static_cast<int>(replicas.size()) < replication) {
    ServerId pick = PickFrom(all_servers_, replicas, has_space, rng);
    if (pick == kInvalidServer) {
      break;
    }
    replicas.push_back(pick);
  }
  return replicas;
}

HistoryPlacement::HistoryPlacement(const Cluster* cluster, ReplicaPlacer::Options options)
    : cluster_(cluster), grid_(PlacementGrid::Build(CollectPlacementStats(*cluster))) {
  placer_ = std::make_unique<ReplicaPlacer>(cluster_, &grid_, options);
}

std::span<const ServerId> HistoryPlacement::Place(ServerId writer, int replication,
                                                  const ServerSpaceFilter& has_space,
                                                  Rng& rng) const {
  placed_ = placer_->Place(writer, replication, has_space, rng);
  return placed_;
}

ServerId HistoryPlacement::PlaceAdditional(std::span<const ServerId> existing,
                                           std::span<const uint8_t> open, Rng& rng) const {
  return placer_->PlaceAdditional(existing, open, rng);
}

}  // namespace harvest
