// Fenwick-tree weighted sampler with replay-exact semantics.
//
// ResourceManager's placement draw historically materialized a dense weight
// vector and called Rng::WeightedIndex on it: one pass to total the weights,
// one NextDouble() draw, and one subtraction scan to locate the index --
// O(n) per placed container. This sampler keeps the weights in a Fenwick
// (binary indexed) tree so a draw is O(log n) and a single-element update is
// O(log n), while reproducing WeightedIndex's selection *bit for bit*:
//
//   * Weights here are non-negative int64. Every weight the scheduler uses
//     (available cores, the history bonus 50 * type cores) is integer-valued,
//     and sums of integer-valued doubles below 2^53 are exact, so the dense
//     code's double `total` equals `double(Total())` regardless of summation
//     order.
//   * WeightedIndex draws `point = NextDouble() * total` and returns the
//     first index i whose inclusive prefix sum reaches `point`, skipping
//     zero weights. Because the weights are integers and `point < 2^53`,
//     every `point -= w[i]` in the dense scan is exact, so that scan is
//     equivalent to "smallest i with prefix(i) >= point" -- exactly what
//     LowerBound computes by descending the tree. The point == 0 corner
//     (NextDouble() returned 0.0) selects the first positive weight in both
//     implementations; callers handle it by passing any point in (0, 1].
//
// The equivalence is exercised end to end by tests/rm_oracle_test.cc and by
// the byte-identical tests/golden/ diffs.

#ifndef HARVEST_SRC_UTIL_WEIGHTED_PICKER_H_
#define HARVEST_SRC_UTIL_WEIGHTED_PICKER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace harvest {

class WeightedPicker {
 public:
  WeightedPicker() = default;

  size_t size() const { return size_; }
  int64_t Total() const { return total_; }

  // Re-initializes to `weights[0] .. weights[count - 1]` in O(n) (in-place
  // prefix doubling). The weights are copied, so the RM's per-slot rebuild
  // gathers every class's column into one reused buffer.
  void Build(const int64_t* weights, size_t count) {
    size_ = count;
    tree_.assign(size_ + 1, 0);
    total_ = 0;
    for (size_t i = 0; i < size_; ++i) {
      tree_[i + 1] += weights[i];
      total_ += weights[i];
      size_t parent = (i + 1) + ((i + 1) & (~(i + 1) + 1));
      if (parent <= size_) {
        tree_[parent] += tree_[i + 1];
      }
    }
    top_bit_ = 1;
    while ((top_bit_ << 1) <= size_) {
      top_bit_ <<= 1;
    }
  }

  // Sets element `i` from `old_weight` to `new_weight` in O(log n).
  void Update(size_t i, int64_t old_weight, int64_t new_weight) {
    int64_t delta = new_weight - old_weight;
    if (delta == 0) {
      return;
    }
    total_ += delta;
    for (size_t k = i + 1; k <= size_; k += k & (~k + 1)) {
      tree_[k] += delta;
    }
  }

  // Sum of the first `count` elements, in O(log n). Exposed for cache
  // audits (tests recover individual weights as adjacent-prefix deltas).
  int64_t PrefixSum(size_t count) const {
    int64_t sum = 0;
    for (size_t k = count; k > 0; k -= k & (~k + 1)) {
      sum += tree_[k];
    }
    return sum;
  }

  // Smallest index i with prefix(i) = w[0] + ... + w[i] >= point, for
  // 0 < point <= Total(). The comparison arithmetic is exact (integer tree
  // values against an integer-plus-fraction point), which is what makes the
  // result identical to the dense subtraction scan.
  size_t LowerBound(double point) const {
    size_t pos = 0;
    for (size_t step = top_bit_; step > 0; step >>= 1) {
      size_t next = pos + step;
      if (next <= size_ && static_cast<double>(tree_[next]) < point) {
        point -= static_cast<double>(tree_[next]);
        pos = next;
      }
    }
    return pos;  // 0-based: `pos` elements lie strictly before the pick
  }

 private:
  std::vector<int64_t> tree_;  // 1-based Fenwick array
  size_t size_ = 0;
  size_t top_bit_ = 0;
  int64_t total_ = 0;
};

}  // namespace harvest

#endif  // HARVEST_SRC_UTIL_WEIGHTED_PICKER_H_
