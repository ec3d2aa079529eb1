// Sharded Fenwick-tree weighted sampler: one WeightedPicker per contiguous
// index range ("shard"), with draws and prefix sums that are bit-identical
// to a single dense picker over the whole range.
//
// Why shard at all: the ResourceManager rebuilds its samplers once per
// telemetry slot from dense weight columns. With one tree that rebuild is a
// serial O(n) pass; with shards each sub-tree covers a disjoint index range
// and can be rebuilt by a different worker (BuildShard is safe to call
// concurrently for distinct shards). Point updates and draws stay O(log
// shard-size) plus an O(shards) walk.
//
// Why the bytes cannot change: a draw locates the smallest index whose
// inclusive prefix sum reaches `point`. The shard walk subtracts whole-shard
// totals (exact int64 sums of integer weights) from `point` in shard order
// before descending one sub-tree -- the same "subtract a block total, then
// resolve inside the block" arithmetic ResourceManager::Allocate already
// uses across class segments, and the same exactness argument as
// src/util/weighted_picker.h: every tree value and every shard total is an
// integer below 2^53, so the comparisons agree with the dense subtraction
// scan. Shard count is therefore an execution-layout knob, like thread
// count: tests/rm_oracle_test.cc re-runs its oracle at several shard counts
// and tests/golden_check.sh byte-compares whole scenario runs.

#ifndef HARVEST_SRC_UTIL_SHARDED_PICKER_H_
#define HARVEST_SRC_UTIL_SHARDED_PICKER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/util/weighted_picker.h"

namespace harvest {

class ShardedPicker {
 public:
  ShardedPicker() = default;

  // Defines the shard partition: `starts[k]` is the first global index of
  // shard k (starts[0] == 0, strictly before `size`... ascending; the last
  // shard ends at `size`). Clears all weights; callers BuildShard each
  // shard (serially or concurrently) and then FinishBuild once.
  void SetLayout(std::vector<size_t> starts, size_t size) {
    if (starts.empty()) {
      starts.push_back(0);
    }
    starts_ = std::move(starts);
    size_ = size;
    shards_.assign(starts_.size(), WeightedPicker());
    total_ = 0;
  }

  size_t size() const { return size_; }
  int num_shards() const { return static_cast<int>(starts_.size()); }
  size_t shard_begin(int shard) const { return starts_[static_cast<size_t>(shard)]; }
  size_t shard_end(int shard) const {
    const size_t next = static_cast<size_t>(shard) + 1;
    return next < starts_.size() ? starts_[next] : size_;
  }

  // Rebuilds shard k from the dense weight column (global indexing:
  // `weights[shard_begin(k)] .. weights[shard_end(k) - 1]`). Writes only
  // shard k's sub-tree, so distinct shards may build concurrently.
  void BuildShard(int shard, const int64_t* weights) {
    shards_[static_cast<size_t>(shard)].Build(weights + shard_begin(shard),
                                              shard_end(shard) - shard_begin(shard));
  }

  // Serial: recomputes the cached grand total after BuildShard calls, in
  // shard order (exact integer sums; order is fixed for determinism).
  void FinishBuild() {
    total_ = 0;
    for (const WeightedPicker& shard : shards_) {
      total_ += shard.Total();
    }
  }

  int64_t Total() const { return total_; }

  // Sets element `i` (global index) from `old_weight` to `new_weight` in
  // O(log shards + log shard-size).
  void Update(size_t i, int64_t old_weight, int64_t new_weight) {
    if (old_weight == new_weight) {
      return;
    }
    const int k = ShardOf(i);
    shards_[static_cast<size_t>(k)].Update(i - shard_begin(k), old_weight, new_weight);
    total_ += new_weight - old_weight;
  }

  // Sum of the first `count` elements (global), exact.
  int64_t PrefixSum(size_t count) const {
    int64_t sum = 0;
    for (int k = 0; k < num_shards(); ++k) {
      const size_t begin = shard_begin(k);
      if (count <= begin) {
        break;
      }
      const size_t len = std::min(count, shard_end(k)) - begin;
      sum += shards_[static_cast<size_t>(k)].PrefixSum(len);
    }
    return sum;
  }

  // Smallest global index i with prefix(i) >= point, for 0 < point <=
  // Total(): walk shard totals in order, then descend inside the owning
  // shard. Exact for the same reason the dense tree is.
  size_t LowerBound(double point) const {
    const int last = num_shards() - 1;
    for (int k = 0; k < last; ++k) {
      const WeightedPicker& shard = shards_[static_cast<size_t>(k)];
      const double shard_total = static_cast<double>(shard.Total());
      if (point <= shard_total && shard.Total() > 0) {
        return shard_begin(k) + shard.LowerBound(point);
      }
      point -= shard_total;
    }
    return shard_begin(last) + shards_[static_cast<size_t>(last)].LowerBound(point);
  }

 private:
  int ShardOf(size_t i) const {
    // Last shard whose start is <= i.
    const auto it = std::upper_bound(starts_.begin(), starts_.end(), i);
    return static_cast<int>(it - starts_.begin()) - 1;
  }

  std::vector<size_t> starts_;  // ascending shard start indexes; [0] == 0
  std::vector<WeightedPicker> shards_;
  size_t size_ = 0;
  int64_t total_ = 0;
};

}  // namespace harvest

#endif  // HARVEST_SRC_UTIL_SHARDED_PICKER_H_
