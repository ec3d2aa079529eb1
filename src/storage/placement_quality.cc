#include "src/storage/placement_quality.h"

#include <algorithm>
#include <set>

namespace harvest {

BlockPlacementQuality PlacementQualityMonitor::ScoreBlock(
    const std::vector<ServerId>& replicas) const {
  BlockPlacementQuality quality;
  quality.replicas = static_cast<int>(replicas.size());
  if (replicas.empty()) {
    return quality;
  }
  std::set<EnvironmentId> environments;
  std::set<int> rows;
  std::set<int> cols;
  for (ServerId s : replicas) {
    TenantId tenant = cluster_->server(s).tenant;
    environments.insert(cluster_->tenant(tenant).environment);
    auto [row, col] = grid_->CellOfTenant(tenant);
    rows.insert(row);
    cols.insert(col);
  }
  double n = static_cast<double>(replicas.size());
  // Row/column diversity saturates at the grid dimension: a 4th or 5th
  // replica legitimately reuses a row (Algorithm 2 resets per round).
  double denom = std::min(n, static_cast<double>(kGridDim));
  quality.environment_diversity = static_cast<double>(environments.size()) / n;
  quality.row_diversity = static_cast<double>(rows.size()) / denom;
  quality.column_diversity = static_cast<double>(cols.size()) / denom;
  return quality;
}

PlacementQualityReport PlacementQualityMonitor::Summarize(
    const std::vector<std::vector<ServerId>>& replica_sets) const {
  PlacementQualityReport report;
  double score_sum = 0.0;
  double min_score = 1.0;
  int64_t violations = 0;
  for (const std::vector<ServerId>& replicas : replica_sets) {
    if (replicas.empty()) {
      continue;
    }
    BlockPlacementQuality quality = ScoreBlock(replicas);
    ++report.blocks;
    score_sum += quality.Score();
    min_score = std::min(min_score, quality.Score());
    if (quality.environment_diversity < 1.0) {
      ++violations;
    }
  }
  if (report.blocks > 0) {
    const double blocks = static_cast<double>(report.blocks);
    report.mean_score = score_sum / blocks;
    report.min_score = min_score;
    report.environment_violations = static_cast<double>(violations) / blocks;
  }
  return report;
}

}  // namespace harvest
