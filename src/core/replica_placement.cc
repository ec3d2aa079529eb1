#include "src/core/replica_placement.h"

#include <algorithm>
#include <utility>

namespace harvest {

namespace {

bool Contains(std::span<const EnvironmentId> haystack, EnvironmentId needle) {
  return std::find(haystack.begin(), haystack.end(), needle) != haystack.end();
}

// Lazily-shuffled visit order over a read-only list: each Next call is one
// step of a Fisher-Yates shuffle, so the sequence of visited items is
// distributed exactly like a full Shuffle() followed by a linear scan, but
// the RNG is only consumed for items actually inspected. The common case
// inspects one item, so the first draw reads the list in place; the list is
// copied into `scratch` (room for items.size()) only when a second draw is
// needed, in the order the first step's swap would have left it. The
// NextBounded calls are those of a shuffle over a copy.
template <typename T>
class LazyShuffle {
 public:
  LazyShuffle(std::span<const T> items, T* scratch) : items_(items), scratch_(scratch) {}

  bool Done() const { return next_ >= items_.size(); }
  T Next(Rng& rng) {
    const size_t j = next_ + static_cast<size_t>(rng.NextBounded(items_.size() - next_));
    if (next_ == 0) {
      first_ = j;
      next_ = 1;
      return items_[j];
    }
    if (next_ == 1) {
      std::copy(items_.begin(), items_.end(), scratch_);
      std::swap(scratch_[0], scratch_[first_]);
    }
    std::swap(scratch_[next_], scratch_[j]);
    return scratch_[next_++];
  }

 private:
  std::span<const T> items_;
  T* scratch_;
  size_t next_ = 0;
  size_t first_ = 0;  // the first draw's index into items_
};

}  // namespace

ReplicaPlacer::ReplicaPlacer(const Cluster* cluster, const PlacementGrid* grid, Options options)
    : cluster_(cluster), grid_(grid), options_(options) {
  server_cells_.reserve(cluster_->num_servers());
  for (const Server& server : cluster_->servers()) {
    const auto [row, col] = grid_->CellOfTenant(server.tenant);
    server_cells_.push_back(ServerCell{cluster_->tenant(server.tenant).environment,
                                       static_cast<int8_t>(row), static_cast<int8_t>(col)});
  }
  size_t largest_cell = 0;
  for (int r = 0; r < kGridDim; ++r) {
    for (int c = 0; c < kGridDim; ++c) {
      const size_t tenants = grid_->cell(r, c).tenants.size();
      largest_cell = std::max(largest_cell, tenants);
      if (tenants == 0) {
        continue;
      }
      const auto cell = static_cast<uint8_t>(r * kGridDim + c);
      all_cells_.cells[all_cells_.size++] = cell;
      for (unsigned mask = 0; mask < kMasks; ++mask) {
        const unsigned rows = mask & ((1u << kGridDim) - 1);
        const unsigned cols = mask >> kGridDim;
        if (((rows >> r) & 1u) == 0 && ((cols >> c) & 1u) == 0) {
          CellList& list = diverse_cells_[mask];
          list.cells[list.size++] = cell;
        }
      }
    }
  }
  tenant_scratch_.resize(largest_cell);
  if (options_.greedy_best_first) {
    greedy_order_ = grid_->tenant_stats();
    std::sort(greedy_order_.begin(), greedy_order_.end(),
              [](const TenantPlacementStats& a, const TenantPlacementStats& b) {
                if (a.reimage_rate != b.reimage_rate) {
                  return a.reimage_rate < b.reimage_rate;
                }
                if (a.peak_utilization != b.peak_utilization) {
                  return a.peak_utilization < b.peak_utilization;
                }
                return a.tenant < b.tenant;
              });
  }
}

TenantId ReplicaPlacer::PickTenant(const GridCell& cell,
                                   std::span<const EnvironmentId> used_environments,
                                   const ServerSpaceFilter& has_space, Rng& rng) const {
  // Random order over the cell's tenants; accept the first eligible one.
  LazyShuffle<TenantId> order(cell.tenants, tenant_scratch_.data());
  while (!order.Done()) {
    TenantId tenant = order.Next(rng);
    if (Contains(used_environments, cluster_->tenant(tenant).environment)) {
      continue;
    }
    for (ServerId server : cluster_->tenant(tenant).servers) {
      if (has_space(server)) {
        return tenant;
      }
    }
  }
  return kInvalidTenant;
}

ServerId ReplicaPlacer::PickServer(TenantId tenant, const ServerSpaceFilter& has_space,
                                   Rng& rng) const {
  const std::vector<ServerId>& servers = cluster_->tenant(tenant).servers;
  if (servers.empty()) {
    return kInvalidServer;
  }
  // Rejection sampling first (uniform over the eligible servers, no
  // candidate-list allocation; succeeds quickly unless the tenant is nearly
  // full)...
  for (int probe = 0; probe < 8; ++probe) {
    ServerId candidate = servers[rng.NextBounded(servers.size())];
    if (has_space(candidate)) {
      return candidate;
    }
  }
  // ...then an exact two-pass draw: count the eligible servers, pick the
  // k-th. Still uniform, still allocation-free.
  size_t eligible = 0;
  for (ServerId server : servers) {
    if (has_space(server)) {
      ++eligible;
    }
  }
  if (eligible == 0) {
    return kInvalidServer;
  }
  size_t k = rng.NextBounded(eligible);
  for (ServerId server : servers) {
    if (has_space(server) && k-- == 0) {
      return server;
    }
  }
  return kInvalidServer;  // unreachable
}

std::vector<ServerId> ReplicaPlacer::Place(ServerId writer, int replication,
                                           const ServerSpaceFilter& has_space, Rng& rng) const {
  if (options_.greedy_best_first) {
    return PlaceGreedy(writer, replication, has_space, rng);
  }

  std::vector<ServerId> replicas;
  replicas.reserve(static_cast<size_t>(replication));
  std::vector<EnvironmentId>& used_environments = environment_scratch_;
  used_environments.clear();
  unsigned used_rows = 0;
  unsigned used_cols = 0;

  // Replica 1: the writer's server, for locality (lines 6-7). Falls back to
  // a random server of the writer's tenant/cell when the writer is full.
  const ServerCell& writer_cell = server_cells_[static_cast<size_t>(writer)];
  ServerId first = has_space(writer)
                       ? writer
                       : PickServer(cluster_->server(writer).tenant, has_space, rng);
  if (first != kInvalidServer) {
    replicas.push_back(first);
    used_environments.push_back(writer_cell.environment);
    if (writer_cell.row >= 0) {
      used_rows |= 1u << writer_cell.row;
      used_cols |= 1u << writer_cell.col;
    }
  }

  // Replicas 2..R (lines 8-18).
  int since_reset = static_cast<int>(replicas.size());
  while (static_cast<int>(replicas.size()) < replication) {
    const CellPick pick = PickInCells(used_rows, used_cols, used_environments, has_space, rng);
    ServerId chosen = pick.server;
    if (chosen != kInvalidServer) {
      used_rows |= 1u << pick.row;
      used_cols |= 1u << pick.col;
      used_environments.push_back(cluster_->tenant(pick.tenant).environment);
    }

    if (chosen == kInvalidServer && options_.soft_constraints) {
      // Space over diversity (the initial production configuration): relax
      // the environment constraint too, before giving up. An empty cell
      // draws nothing, so visiting the nonempty cells in row-major order
      // draws as visiting all nine would.
      for (uint8_t i = 0; i < all_cells_.size && chosen == kInvalidServer; ++i) {
        const int cell = all_cells_.cells[i];
        TenantId tenant = PickTenant(grid_->cell(cell / kGridDim, cell % kGridDim), {},
                                     has_space, rng);
        if (tenant != kInvalidTenant) {
          chosen = PickServer(tenant, has_space, rng);
        }
      }
    }

    if (chosen == kInvalidServer) {
      break;  // hard constraints: partial placement, caller decides
    }
    replicas.push_back(chosen);
    ++since_reset;
    if (since_reset % 3 == 0) {
      // Forget rows and columns every third replica (lines 15-17).
      used_rows = 0;
      used_cols = 0;
    }
  }
  return replicas;
}

ServerId ReplicaPlacer::PlaceAdditional(std::span<const ServerId> existing,
                                        std::span<const uint8_t> open, Rng& rng) const {
  std::vector<EnvironmentId>& used_environments = environment_scratch_;
  used_environments.clear();
  unsigned used_rows = 0;
  unsigned used_cols = 0;
  for (ServerId s : existing) {
    const ServerCell& cell = server_cells_[static_cast<size_t>(s)];
    used_environments.push_back(cell.environment);
    if (cell.row >= 0) {
      used_rows |= 1u << cell.row;
      used_cols |= 1u << cell.col;
    }
  }

  // When the existing replicas already span 3 cells, pass 1 finds none and
  // pass 2 mirrors Algorithm 2's round reset.
  const ServerSpaceFilter has_space{open, existing};
  return PickInCells(used_rows, used_cols, used_environments, has_space, rng).server;
}

ReplicaPlacer::CellPick ReplicaPlacer::PickInCells(
    unsigned used_rows, unsigned used_cols, std::span<const EnvironmentId> used_environments,
    const ServerSpaceFilter& has_space, Rng& rng) const {
  // Pass 1: cells whose row and column are unused. Pass 2: any cell -- the
  // row/column rule is a diversity heuristic and degrades before failing
  // the block (small fleets cannot always honor it), while the environment
  // constraint stays hard. Both lists skip empty cells, which the
  // constructor dropped, and keep the row-major order.
  const CellList* passes[2] = {&diverse_cells_[used_rows | (used_cols << kGridDim)], &all_cells_};
  std::array<uint8_t, kGridDim * kGridDim> scratch{};
  for (const CellList* list : passes) {
    LazyShuffle<uint8_t> order(std::span<const uint8_t>(list->cells.data(), list->size),
                               scratch.data());
    while (!order.Done()) {
      const int cell = order.Next(rng);
      const int r = cell / kGridDim;
      const int c = cell % kGridDim;
      TenantId tenant = PickTenant(grid_->cell(r, c), used_environments, has_space, rng);
      if (tenant == kInvalidTenant) {
        continue;
      }
      ServerId server = PickServer(tenant, has_space, rng);
      if (server != kInvalidServer) {
        return {server, tenant, r, c};
      }
    }
  }
  return {};
}

std::vector<ServerId> ReplicaPlacer::PlaceGreedy(ServerId writer, int replication,
                                                 const ServerSpaceFilter& has_space,
                                                 Rng& rng) const {
  // The strawman of §4.2: order tenants by (reimage rate, peak utilization)
  // and fill the "best" tenants first. Flaws: durability and availability are
  // treated sequentially, and once the good tenants fill up, the remaining
  // placements are poor. The order is precomputed in the constructor.
  std::vector<ServerId> replicas;
  if (has_space(writer)) {
    replicas.push_back(writer);
  }
  std::vector<EnvironmentId>& used_environments = environment_scratch_;
  used_environments.clear();
  if (!replicas.empty()) {
    used_environments.push_back(server_cells_[static_cast<size_t>(writer)].environment);
  }
  for (const auto& stats : greedy_order_) {
    if (static_cast<int>(replicas.size()) >= replication) {
      break;
    }
    if (Contains(used_environments, stats.environment)) {
      continue;
    }
    ServerId server = PickServer(stats.tenant, has_space, rng);
    if (server != kInvalidServer) {
      replicas.push_back(server);
      used_environments.push_back(stats.environment);
    }
  }
  return replicas;
}

}  // namespace harvest
