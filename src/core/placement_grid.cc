#include "src/core/placement_grid.h"

#include <algorithm>
#include <numeric>

namespace harvest {

namespace {

// Cuts `order` (tenant indices sorted along one dimension) into kGridDim
// contiguous groups with approximately equal total storage, giving every
// group at least `min_per_group` members when enough tenants exist (the
// paper's classes always contain tenants by construction -- they each hold
// S/9 of the space). Returns the group index per position.
std::vector<int> EqualSpaceCut(const std::vector<size_t>& order,
                               const std::vector<TenantPlacementStats>& stats,
                               int min_per_group) {
  const int n = static_cast<int>(order.size());
  std::vector<int> group(order.size(), 0);
  if (n == 0) {
    return group;
  }
  int64_t total = 0;
  for (size_t idx : order) {
    total += stats[idx].available_blocks;
  }
  const int target = std::max(0, std::min(min_per_group, n / kGridDim));

  // One greedy pass: each group takes tenants until its (recomputed) space
  // quota is met, while always (a) taking at least `target` members and
  // (b) leaving at least `target` members for every later group. The last
  // group absorbs the remainder.
  int64_t remaining_space = total;
  int pos = 0;
  for (int g = 0; g < kGridDim; ++g) {
    const int groups_left = kGridDim - g;
    if (g == kGridDim - 1) {
      for (; pos < n; ++pos) {
        group[static_cast<size_t>(pos)] = g;
      }
      break;
    }
    const int64_t quota = remaining_space / groups_left;
    int64_t taken_space = 0;
    int taken = 0;
    while (pos < n) {
      const int reserved_later = (groups_left - 1) * target;
      if (n - pos <= reserved_later && taken >= target) {
        break;  // later groups need the rest to hit their minimum
      }
      // Midpoint rule: a huge tenant straddling the boundary joins the
      // group holding most of its span.
      int64_t blocks = stats[order[static_cast<size_t>(pos)]].available_blocks;
      if (taken >= target && taken_space + blocks / 2 > quota) {
        break;
      }
      group[static_cast<size_t>(pos)] = g;
      taken_space += blocks;
      ++taken;
      ++pos;
    }
    remaining_space -= taken_space;
  }
  return group;
}

}  // namespace

PlacementGrid PlacementGrid::Build(const std::vector<TenantPlacementStats>& tenants) {
  PlacementGrid grid;
  grid.stats_ = tenants;
  if (tenants.empty()) {
    return grid;
  }

  TenantId max_id = 0;
  for (const auto& t : tenants) {
    max_id = std::max(max_id, t.tenant);
    grid.total_blocks_ += t.available_blocks;
  }
  grid.tenant_cell_.assign(static_cast<size_t>(max_id) + 1, {-1, -1});

  // Columns: equal-storage cut along reimage rate.
  std::vector<size_t> by_reimage(tenants.size());
  std::iota(by_reimage.begin(), by_reimage.end(), 0);
  std::sort(by_reimage.begin(), by_reimage.end(), [&tenants](size_t a, size_t b) {
    if (tenants[a].reimage_rate != tenants[b].reimage_rate) {
      return tenants[a].reimage_rate < tenants[b].reimage_rate;
    }
    return tenants[a].tenant < tenants[b].tenant;
  });
  // Columns get at least kGridDim tenants each (when the fleet allows) so
  // every row cell within them can be populated.
  std::vector<int> col_of = EqualSpaceCut(by_reimage, tenants, kGridDim);

  // Rows: within each column, equal-storage cut along peak utilization.
  for (int col = 0; col < kGridDim; ++col) {
    std::vector<size_t> members;
    for (size_t pos = 0; pos < by_reimage.size(); ++pos) {
      if (col_of[pos] == col) {
        members.push_back(by_reimage[pos]);
      }
    }
    std::sort(members.begin(), members.end(), [&tenants](size_t a, size_t b) {
      if (tenants[a].peak_utilization != tenants[b].peak_utilization) {
        return tenants[a].peak_utilization < tenants[b].peak_utilization;
      }
      return tenants[a].tenant < tenants[b].tenant;
    });
    std::vector<int> row_of = EqualSpaceCut(members, tenants, 1);
    for (size_t pos = 0; pos < members.size(); ++pos) {
      const auto& t = tenants[members[pos]];
      GridCell& cell = grid.cell(row_of[pos], col);
      cell.row = row_of[pos];
      cell.col = col;
      cell.tenants.push_back(t.tenant);
      cell.total_blocks += t.available_blocks;
      grid.tenant_cell_[static_cast<size_t>(t.tenant)] = {row_of[pos], col};
    }
  }
  // Fill in coordinates for empty cells too.
  for (int r = 0; r < kGridDim; ++r) {
    for (int c = 0; c < kGridDim; ++c) {
      grid.cell(r, c).row = r;
      grid.cell(r, c).col = c;
    }
  }
  return grid;
}

std::pair<int, int> PlacementGrid::CellOfTenant(TenantId tenant) const {
  if (tenant < 0 || static_cast<size_t>(tenant) >= tenant_cell_.size()) {
    return {-1, -1};
  }
  return tenant_cell_[static_cast<size_t>(tenant)];
}

double PlacementGrid::BalanceRatio() const {
  int64_t lo = std::numeric_limits<int64_t>::max();
  int64_t hi = 0;
  for (const auto& cell : cells_) {
    lo = std::min(lo, cell.total_blocks);
    hi = std::max(hi, cell.total_blocks);
  }
  if (lo <= 0) {
    return hi > 0 ? static_cast<double>(hi) : 1.0;
  }
  return static_cast<double>(hi) / static_cast<double>(lo);
}

std::vector<TenantPlacementStats> CollectPlacementStats(const Cluster& cluster) {
  std::vector<TenantPlacementStats> stats;
  stats.reserve(cluster.num_tenants());
  for (const auto& tenant : cluster.tenants()) {
    TenantPlacementStats s;
    s.tenant = tenant.id;
    s.environment = tenant.environment;
    s.reimage_rate = tenant.reimage_rate;
    s.peak_utilization = tenant.average_utilization.Peak();
    for (ServerId server : tenant.servers) {
      s.available_blocks += cluster.server(server).harvestable_blocks;
    }
    stats.push_back(std::move(s));
  }
  return stats;
}

}  // namespace harvest
