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
// The placer therefore reads a concrete space filter (ServerSpaceFilter, two
// spans the NameNode keeps), precomputes each server's environment and cell
// and every row/column mask's candidate cells at construction, visits cells
// and tenants in lazily-shuffled order (RNG draws proportional to candidates
// *inspected*, not candidates available; the first draw reads the list in
// place), and picks servers by rejection sampling. Once its scratch has
// grown, only Place's result allocates. One placer serves one simulation
// thread at a time (each NameNode owns its own instance); see the scratch
// members below.

#ifndef HARVEST_SRC_CORE_REPLICA_PLACEMENT_H_
#define HARVEST_SRC_CORE_REPLICA_PLACEMENT_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/core/placement_grid.h"
#include "src/util/rng.h"

namespace harvest {

// Which servers may take one more replica of a block: a server passes when
// its byte in `open` is nonzero and it is not in `taken`. `open` holds one
// byte per server of the cluster, indexed by ServerId; its owner (the
// NameNode) keeps it current. `taken` lists servers already holding a
// replica of the block: empty when a block is created, the block's live
// replicas when one is healed.
struct ServerSpaceFilter {
  std::span<const uint8_t> open;
  std::span<const ServerId> taken = {};

  bool operator()(ServerId server) const {
    if (open[static_cast<size_t>(server)] == 0) {
      return false;
    }
    for (ServerId holder : taken) {
      if (holder == server) {
        return false;
      }
    }
    return true;
  }
};

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

  // The cluster and the grid must outlive the placer and stay unchanged:
  // the constructor derives its tables from both.
  ReplicaPlacer(const Cluster* cluster, const PlacementGrid* grid)
      : ReplicaPlacer(cluster, grid, Options()) {}
  ReplicaPlacer(const Cluster* cluster, const PlacementGrid* grid, Options options);

  // Places `replication` replicas of a new block created by `writer`.
  // Returns the chosen servers (size <= replication; < means partial failure
  // under hard constraints). `has_space` filters candidate servers.
  std::vector<ServerId> Place(ServerId writer, int replication,
                              const ServerSpaceFilter& has_space, Rng& rng) const;

  // Chooses one destination for a re-replication of a block that already has
  // replicas on `existing`, among the servers whose `open` byte is set and
  // that are not in `existing`, preserving Algorithm 2's diversity: prefer
  // cells whose row and column differ from every existing replica's cell,
  // never repeat an environment, relax the row/column constraint only when
  // no such cell has room. Neither option changes this search (the options
  // act on Place only).
  ServerId PlaceAdditional(std::span<const ServerId> existing, std::span<const uint8_t> open,
                           Rng& rng) const;

 private:
  // A destination server, with the tenant and grid cell it was drawn from.
  struct CellPick {
    ServerId server = kInvalidServer;
    TenantId tenant = kInvalidTenant;
    int row = -1;
    int col = -1;
  };
  // A server's environment and grid cell (row and col -1 when its tenant
  // has no cell).
  struct ServerCell {
    EnvironmentId environment = 0;
    int8_t row = -1;
    int8_t col = -1;
  };
  // Nonempty grid cells as indexes row * kGridDim + col, in row-major order.
  struct CellList {
    std::array<uint8_t, kGridDim * kGridDim> cells{};
    uint8_t size = 0;
  };
  // Row and column masks: bit r of `rows` set when row r is used.
  static constexpr int kMasks = 1 << (2 * kGridDim);

  // Algorithm 2's cell search: a random cell whose row and column are both
  // unused, then any cell; in it, a random tenant of an unused environment
  // (PickTenant) and a random server of that tenant with space (PickServer).
  // Returns an empty pick (kInvalidServer) when no cell yields a server.
  CellPick PickInCells(unsigned used_rows, unsigned used_cols,
                       std::span<const EnvironmentId> used_environments,
                       const ServerSpaceFilter& has_space, Rng& rng) const;

  // Picks a random tenant of `cell` not in `used_environments` that has at
  // least one server passing `has_space`; returns kInvalidTenant when none.
  TenantId PickTenant(const GridCell& cell, std::span<const EnvironmentId> used_environments,
                      const ServerSpaceFilter& has_space, Rng& rng) const;
  ServerId PickServer(TenantId tenant, const ServerSpaceFilter& has_space, Rng& rng) const;

  std::vector<ServerId> PlaceGreedy(ServerId writer, int replication,
                                    const ServerSpaceFilter& has_space, Rng& rng) const;

  const Cluster* cluster_;
  const PlacementGrid* grid_;
  Options options_;
  // Indexed by ServerId.
  std::vector<ServerCell> server_cells_;
  // Pass 1's cells for each (used rows, used columns) pair, indexed by
  // rows | (cols << kGridDim): the cells whose row and column are both
  // unused.
  std::array<CellList, kMasks> diverse_cells_{};
  // Pass 2's cells: every nonempty cell.
  CellList all_cells_;
  // The strawman's tenant order, precomputed once (it is a pure function of
  // the grid's tenant statistics; the seed code re-sorted per block).
  std::vector<TenantPlacementStats> greedy_order_;
  // Scratch reused across calls so the heal path never allocates. Mutable
  // because placement is logically const; this makes one placer instance
  // single-threaded by design (documented above). The tenant scratch is
  // sized at construction to the largest cell.
  mutable std::vector<TenantId> tenant_scratch_;
  mutable std::vector<EnvironmentId> environment_scratch_;
};

}  // namespace harvest

#endif  // HARVEST_SRC_CORE_REPLICA_PLACEMENT_H_
