// Replica placement policies for the HDFS-like store.
//
//   * StockPlacement: the default HDFS rule -- first replica on the writer,
//     second on another server of the same rack, third on a remote rack,
//     extras random (paper §5.1). Unaware of primary tenants; because tenants
//     occupy contiguous racks, rack locality correlates with environments.
//   * HistoryPlacement: Algorithm 2 over the 3x3 reimage x peak-utilization
//     grid (paper §4.2), wrapping core::ReplicaPlacer.
//   * RandomPlacement: uniform random distinct servers (ablation baseline).

#ifndef HARVEST_SRC_STORAGE_PLACEMENT_H_
#define HARVEST_SRC_STORAGE_PLACEMENT_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/core/replica_placement.h"
#include "src/util/rng.h"

namespace harvest {

// Filters candidate destinations: true when the server can take one more
// replica of this block (has space, not already holding one).
using ServerSpaceFilter = std::function<bool(ServerId)>;

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;
  // Chooses up to `replication` servers for a new block written by `writer`.
  virtual std::vector<ServerId> Place(ServerId writer, int replication,
                                      const ServerSpaceFilter& has_space, Rng& rng) const = 0;
  // Chooses one destination for re-replicating a block whose live replicas
  // sit on `existing` (the first entry is the copy source). The default
  // mirrors stock HDFS: run the creation policy with the source as writer
  // and take the first server not already holding a replica.
  virtual ServerId PlaceAdditional(const std::vector<ServerId>& existing,
                                   const ServerSpaceFilter& has_space, Rng& rng) const;
};

class StockPlacement : public PlacementPolicy {
 public:
  explicit StockPlacement(const Cluster* cluster);
  std::vector<ServerId> Place(ServerId writer, int replication,
                              const ServerSpaceFilter& has_space, Rng& rng) const override;

 private:
  const Cluster* cluster_;
  // rack -> servers, for same-rack / remote-rack picks.
  std::vector<std::vector<ServerId>> rack_servers_;
  // Every server, for the exhaustive fallback (prebuilt: the fallback fires
  // on nearly-full fleets, where rebuilding it per block dominated).
  std::vector<ServerId> all_servers_;
};

class RandomPlacement : public PlacementPolicy {
 public:
  explicit RandomPlacement(const Cluster* cluster);
  std::vector<ServerId> Place(ServerId writer, int replication,
                              const ServerSpaceFilter& has_space, Rng& rng) const override;

 private:
  const Cluster* cluster_;
  std::vector<ServerId> all_servers_;  // prebuilt uniform pool
};

class HistoryPlacement : public PlacementPolicy {
 public:
  // Builds the placement grid from the cluster's tenant statistics.
  explicit HistoryPlacement(const Cluster* cluster, ReplicaPlacer::Options options = {});
  std::vector<ServerId> Place(ServerId writer, int replication,
                              const ServerSpaceFilter& has_space, Rng& rng) const override;
  // Re-replication preserves Algorithm 2's diversity against the block's
  // surviving replicas (environment + row/column constraints).
  ServerId PlaceAdditional(const std::vector<ServerId>& existing,
                           const ServerSpaceFilter& has_space, Rng& rng) const override;

  const PlacementGrid& grid() const { return grid_; }

 private:
  const Cluster* cluster_;
  PlacementGrid grid_;
  std::unique_ptr<ReplicaPlacer> placer_;
};

}  // namespace harvest

#endif  // HARVEST_SRC_STORAGE_PLACEMENT_H_
