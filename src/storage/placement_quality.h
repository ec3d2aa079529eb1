// Placement-quality scoring (paper §7, lessons 1 and 3): production HDFS-H
// collects extensive information about block placements to estimate their
// quality -- the "data durability is king" lesson learned after the initial
// space-over-diversity configuration lost blocks. The placement audit stage
// summarizes its sampled Algorithm-2 placements here. Production's guardrail
// that stops consuming space when diversity becomes low is not modeled.
//
// The monitor scores each block by how diverse its replicas are along the
// dimensions Algorithm 2 optimizes: distinct environments, distinct grid
// rows (availability), and distinct grid columns (durability).

#ifndef HARVEST_SRC_STORAGE_PLACEMENT_QUALITY_H_
#define HARVEST_SRC_STORAGE_PLACEMENT_QUALITY_H_

#include <cstdint>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/core/placement_grid.h"

namespace harvest {

// Quality of one block's placement, each in [0, 1] (1 = fully diverse).
struct BlockPlacementQuality {
  double environment_diversity = 0.0;  // distinct envs / replicas
  double row_diversity = 0.0;          // distinct grid rows / min(replicas, 3)
  double column_diversity = 0.0;       // distinct grid cols / min(replicas, 3)
  int replicas = 0;

  // Composite score; environment diversity dominates (it is the hard
  // constraint whose violation loses data under correlated reimages).
  double Score() const {
    return 0.5 * environment_diversity + 0.25 * row_diversity + 0.25 * column_diversity;
  }
};

// Summary of a set of placed blocks.
struct PlacementQualityReport {
  int64_t blocks = 0;
  double mean_score = 0.0;
  double min_score = 0.0;
  // Fraction of blocks with at least two replicas in one environment (the
  // loss-prone pattern the paper's production rollout eliminated).
  double environment_violations = 0.0;
};

class PlacementQualityMonitor {
 public:
  PlacementQualityMonitor(const Cluster* cluster, const PlacementGrid* grid)
      : cluster_(cluster), grid_(grid) {}

  // Scores one block's replica set.
  BlockPlacementQuality ScoreBlock(const std::vector<ServerId>& replicas) const;

  // Scores every nonempty replica set, in order; empty sets (unplaced or
  // lost blocks) are skipped. With no block to score, every field is 0.
  PlacementQualityReport Summarize(const std::vector<std::vector<ServerId>>& replica_sets) const;

 private:
  const Cluster* cluster_;
  const PlacementGrid* grid_;
};

}  // namespace harvest

#endif  // HARVEST_SRC_STORAGE_PLACEMENT_QUALITY_H_
