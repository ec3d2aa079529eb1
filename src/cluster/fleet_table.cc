#include "src/cluster/fleet_table.h"

#include <algorithm>
#include <map>
#include <unordered_map>

namespace harvest {

FleetTable::FleetTable(const Cluster& cluster) {
  const size_t n = cluster.num_servers();
  capacity_cores_.reserve(n);
  capacity_memory_mb_.reserve(n);
  trace_index_.reserve(n);
  group_.reserve(n);
  // Pooling map is lookup-only (never iterated), so its order cannot leak
  // into results; indexes are assigned in first-appearance order.
  std::unordered_map<const UtilizationTrace*, int32_t> pool;
  for (const Server& server : cluster.servers()) {
    capacity_cores_.push_back(server.capacity.cores);
    capacity_memory_mb_.push_back(server.capacity.memory_mb);
    const UtilizationTrace* trace = server.utilization.get();
    if (trace == nullptr || trace->empty()) {
      trace_index_.push_back(-1);
    } else {
      auto [it, inserted] = pool.emplace(trace, static_cast<int32_t>(traces_.size()));
      if (inserted) {
        traces_.push_back(trace);
      }
      trace_index_.push_back(it->second);
    }
    // A new group starts whenever the telemetry inputs (trace, capacity)
    // change from the previous server. Runs, not equivalence classes: this
    // keeps groups contiguous by construction, so a walk over a ServerId
    // range meets each group as one run.
    const size_t s = capacity_cores_.size() - 1;
    const bool new_group =
        s == 0 || trace_index_[s] != trace_index_[s - 1] ||
        capacity_cores_[s] != capacity_cores_[s - 1] ||
        capacity_memory_mb_[s] != capacity_memory_mb_[s - 1];
    if (new_group) {
      group_start_.push_back(s);
    }
    group_.push_back(static_cast<int32_t>(group_start_.size()) - 1);
  }
}

std::vector<std::pair<std::string, int64_t>> FleetTable::ShapeCounts() const {
  std::map<std::pair<int, int>, int64_t> counts;
  for (size_t s = 0; s < num_servers(); ++s) {
    ++counts[{capacity_cores_[s], capacity_memory_mb_[s]}];
  }
  std::vector<std::pair<std::string, int64_t>> out;
  out.reserve(counts.size());
  for (const auto& [shape, count] : counts) {
    out.emplace_back(std::to_string(shape.first) + "c" + std::to_string(shape.second) + "m",
                     count);
  }
  return out;
}

int FleetTable::AutoShardCount(size_t servers) {
  const size_t shards = servers / 4096;
  return static_cast<int>(std::min<size_t>(16, std::max<size_t>(1, shards)));
}

}  // namespace harvest
