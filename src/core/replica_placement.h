// Algorithm 2 of the paper (§4.2): replica placement over the 3x3 grid.
// The first replica stays on the server creating the block (locality); each
// subsequent replica goes to a random cell subject to "no repeated row, no
// repeated column", to a random tenant of that cell whose environment has not
// yet received a replica, and to a random server of that tenant with space.
// After every third replica the row/column history is forgotten, so
// replication levels above 3 keep spreading.
//
// Placement is the storage co-simulation's hot path: a year of reimages heals
// ~7 blocks for every block created, and every heal runs PlaceAdditional.
// The placer therefore keeps reusable scratch buffers (no allocation per
// call), visits candidates in lazily-shuffled order (RNG draws proportional
// to candidates *inspected*, not candidates available), and picks servers by
// rejection sampling. One placer serves one simulation thread at a time
// (each NameNode owns its own instance); see the scratch members below.

#ifndef HARVEST_SRC_CORE_REPLICA_PLACEMENT_H_
#define HARVEST_SRC_CORE_REPLICA_PLACEMENT_H_

#include <array>
#include <functional>
#include <utility>
#include <vector>

#include "src/core/placement_grid.h"
#include "src/util/rng.h"

namespace harvest {

class ReplicaPlacer {
 public:
  struct Options {
    // Hard constraints fail placement when diversity cannot be met; the
    // production deployment initially allowed "soft" fallbacks (multiple
    // replicas per environment) to favor space utilization over diversity,
    // then reverted after losses (paper §7, lesson 3).
    bool soft_constraints = false;
    // Skip the grid entirely and pick the greedy "best-first" tenant order
    // (fewest reimages, then lowest utilization): the flawed strawman of
    // §4.2, run as the storage grid's HDFS-Greedy kind.
    bool greedy_best_first = false;
  };

  // `server_has_space(server)` and `server_of_tenant(tenant, rng)` abstract
  // the live file-system state so the same algorithm runs inside the real
  // NameNode and the simulators.
  using ServerFilter = std::function<bool(ServerId)>;

  ReplicaPlacer(const Cluster* cluster, const PlacementGrid* grid)
      : ReplicaPlacer(cluster, grid, Options()) {}
  ReplicaPlacer(const Cluster* cluster, const PlacementGrid* grid, Options options);

  // Places `replication` replicas of a new block created by `writer`.
  // Returns the chosen servers (size <= replication; < means partial failure
  // under hard constraints). `has_space` filters candidate servers.
  std::vector<ServerId> Place(ServerId writer, int replication, const ServerFilter& has_space,
                              Rng& rng) const;

  // Chooses one destination for a re-replication of a block that already has
  // replicas on `existing`, preserving Algorithm 2's diversity: prefer cells
  // whose row and column differ from every existing replica's cell, never
  // repeat an environment, relax the row/column constraint only when no such
  // cell has room.
  ServerId PlaceAdditional(const std::vector<ServerId>& existing, const ServerFilter& has_space,
                           Rng& rng) const;

 private:
  // A destination server, with the tenant and grid cell it was drawn from.
  struct CellPick {
    ServerId server = kInvalidServer;
    TenantId tenant = kInvalidTenant;
    int row = -1;
    int col = -1;
  };

  // Algorithm 2's cell search: a random cell whose row and column are both
  // unused, then any cell; in it, a random tenant of an unused environment
  // (PickTenant) and a random server of that tenant with space (PickServer).
  // Returns an empty pick (kInvalidServer) when no cell yields a server.
  CellPick PickInCells(const std::array<bool, kGridDim>& used_rows,
                       const std::array<bool, kGridDim>& used_cols,
                       const std::vector<EnvironmentId>& used_environments,
                       const ServerFilter& has_space, Rng& rng) const;

  // Picks a random tenant of `cell` not in `used_environments` that has at
  // least one server passing `has_space`; returns kInvalidTenant when none.
  TenantId PickTenant(const GridCell& cell, const std::vector<EnvironmentId>& used_environments,
                      const ServerFilter& has_space, Rng& rng) const;
  ServerId PickServer(TenantId tenant, const ServerFilter& has_space, Rng& rng) const;

  std::vector<ServerId> PlaceGreedy(ServerId writer, int replication,
                                    const ServerFilter& has_space, Rng& rng) const;

  const Cluster* cluster_;
  const PlacementGrid* grid_;
  Options options_;
  // The strawman's tenant order, precomputed once (it is a pure function of
  // the grid's tenant statistics; the seed code re-sorted per block).
  std::vector<TenantPlacementStats> greedy_order_;
  // Scratch reused across calls so the heal path never allocates. Mutable
  // because placement is logically const; this makes one placer instance
  // single-threaded by design (documented above).
  mutable std::vector<TenantId> tenant_scratch_;
  mutable std::vector<EnvironmentId> environment_scratch_;
};

}  // namespace harvest

#endif  // HARVEST_SRC_CORE_REPLICA_PLACEMENT_H_
