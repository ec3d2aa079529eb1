// Struct-of-arrays view of one datacenter's fleet.
//
// The Cluster keeps servers as an array of structs -- natural for
// construction and for the trace/replay layer, but hostile to the
// co-simulation hot loops, which touch one field of every server per
// telemetry slot. FleetTable derives contiguous per-field columns (capacity
// cores / memory, pooled trace index) from a Cluster once, so slot
// refreshes stream cache lines instead of striding through ~200-byte Server
// objects, and adds the two structural indexes the per-slot refresh is
// built on:
//
//   * trace pooling: distinct UtilizationTrace objects are numbered in
//     first-appearance (ServerId) order; servers sharing a trace (DC-scale
//     clusters share one per tenant) share one index, so per-slot trace
//     work is O(distinct traces), not O(servers).
//   * telemetry groups: maximal runs of consecutive servers with identical
//     (trace, capacity). Every per-slot quantity that depends only on the
//     trace and the capacity (live primary cores, forecast cores) is
//     constant within a group and computed once per group.
//
// The table is a read-only index: it borrows the Cluster (which must
// outlive it) and holds no mutable simulation state.

#ifndef HARVEST_SRC_CLUSTER_FLEET_TABLE_H_
#define HARVEST_SRC_CLUSTER_FLEET_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/types.h"

namespace harvest {

class FleetTable {
 public:
  FleetTable() = default;
  explicit FleetTable(const Cluster& cluster);

  size_t num_servers() const { return capacity_cores_.size(); }

  // SoA columns, indexed by ServerId.
  const std::vector<int>& capacity_cores() const { return capacity_cores_; }
  const std::vector<int>& capacity_memory_mb() const { return capacity_memory_mb_; }
  // Pooled trace id per server (-1 = no / empty trace).
  const std::vector<int32_t>& trace_index() const { return trace_index_; }
  // Telemetry group (run) id per server.
  const std::vector<int32_t>& group() const { return group_; }

  int num_traces() const { return static_cast<int>(traces_.size()); }
  const UtilizationTrace* trace(int32_t index) const {
    return traces_[static_cast<size_t>(index)];
  }

  int num_groups() const { return static_cast<int>(group_start_.size()); }
  size_t group_begin(int g) const { return group_start_[static_cast<size_t>(g)]; }
  size_t group_end(int g) const {
    const size_t next = static_cast<size_t>(g) + 1;
    return next < group_start_.size() ? group_start_[next] : num_servers();
  }

  // Server count per capacity shape ("<cores>c<memory_mb>m"), ordered by
  // (cores, memory). Feeds the self-describing trace MANIFEST.
  std::vector<std::pair<std::string, int64_t>> ShapeCounts() const;

  // One per 4096 servers, clamped to [1, 16]. Two readers: the NameNode's
  // heal-lane group count (a model parameter, so it changes results) and
  // the cap on the RM's per-slot refresh workers (execution layout, so it
  // changes no byte), which keeps fleets under 8,192 servers from starting
  // a thread per slot.
  static int AutoShardCount(size_t servers);

 private:
  std::vector<int> capacity_cores_;
  std::vector<int> capacity_memory_mb_;
  std::vector<int32_t> trace_index_;
  std::vector<int32_t> group_;
  std::vector<size_t> group_start_;
  std::vector<const UtilizationTrace*> traces_;
};

}  // namespace harvest

#endif  // HARVEST_SRC_CLUSTER_FLEET_TABLE_H_
