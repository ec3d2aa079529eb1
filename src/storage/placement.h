// Replica placement policies for the HDFS-like store.
//
//   * StockPlacement: the default HDFS rule -- first replica on the writer,
//     second on another server of the same rack, third on a remote rack,
//     extras random (paper §5.1). Unaware of primary tenants; because tenants
//     occupy contiguous racks, rack locality correlates with environments.
//   * HistoryPlacement: Algorithm 2 over the 3x3 reimage x peak-utilization
//     grid (paper §4.2), wrapping core::ReplicaPlacer.
//   * RandomPlacement: uniform random distinct servers (ablation baseline).
//
// Every policy takes the NameNode's space filter (ServerSpaceFilter, from
// src/core/replica_placement.h): a byte per server saying whether it can
// take a replica now, and the servers already holding one. A policy reuses
// its buffers across calls, so one instance serves one thread at a time and
// re-replication allocates nothing.

#ifndef HARVEST_SRC_STORAGE_PLACEMENT_H_
#define HARVEST_SRC_STORAGE_PLACEMENT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/core/replica_placement.h"
#include "src/util/rng.h"

namespace harvest {

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;
  // Chooses up to `replication` servers that `has_space` passes for a new
  // block written by `writer`. The result views a buffer of the policy, valid
  // until the policy's next call.
  virtual std::span<const ServerId> Place(ServerId writer, int replication,
                                          const ServerSpaceFilter& has_space,
                                          Rng& rng) const = 0;
  // Chooses one destination for re-replicating a block whose live replicas
  // sit on `existing` (the first entry is the copy source): a server whose
  // `open` byte is set and that is not in `existing`, or kInvalidServer. The
  // default mirrors stock HDFS: run the creation policy with the source as
  // writer and take the first server not already holding a replica.
  virtual ServerId PlaceAdditional(std::span<const ServerId> existing,
                                   std::span<const uint8_t> open, Rng& rng) const;
};

class StockPlacement : public PlacementPolicy {
 public:
  explicit StockPlacement(const Cluster* cluster);
  std::span<const ServerId> Place(ServerId writer, int replication,
                                  const ServerSpaceFilter& has_space, Rng& rng) const override;

 private:
  const Cluster* cluster_;
  // rack -> servers, for same-rack / remote-rack picks.
  std::vector<std::vector<ServerId>> rack_servers_;
  // Every server, for the exhaustive fallback (prebuilt: the fallback fires
  // on nearly-full fleets, where rebuilding it per block dominated).
  std::vector<ServerId> all_servers_;
  mutable std::vector<ServerId> placed_;  // Place's result
};

class RandomPlacement : public PlacementPolicy {
 public:
  explicit RandomPlacement(const Cluster* cluster);
  std::span<const ServerId> Place(ServerId writer, int replication,
                                  const ServerSpaceFilter& has_space, Rng& rng) const override;

 private:
  const Cluster* cluster_;
  std::vector<ServerId> all_servers_;  // prebuilt uniform pool
  mutable std::vector<ServerId> placed_;  // Place's result
};

class HistoryPlacement : public PlacementPolicy {
 public:
  // Builds the placement grid from the cluster's tenant statistics.
  explicit HistoryPlacement(const Cluster* cluster, ReplicaPlacer::Options options = {});
  std::span<const ServerId> Place(ServerId writer, int replication,
                                  const ServerSpaceFilter& has_space, Rng& rng) const override;
  // Re-replication preserves Algorithm 2's diversity against the block's
  // surviving replicas (environment + row/column constraints).
  ServerId PlaceAdditional(std::span<const ServerId> existing, std::span<const uint8_t> open,
                           Rng& rng) const override;

  const PlacementGrid& grid() const { return grid_; }

 private:
  const Cluster* cluster_;
  PlacementGrid grid_;
  std::unique_ptr<ReplicaPlacer> placer_;
  mutable std::vector<ServerId> placed_;  // Place's result
};

}  // namespace harvest

#endif  // HARVEST_SRC_STORAGE_PLACEMENT_H_
