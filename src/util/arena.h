// Bump allocator for per-run scratch with a high-water-mark counter.
//
// The sharded co-simulation allocates short-lived working sets whose sizes
// are known up front each slot (per-shard partial sums, weight columns,
// availability snapshots). Routing them through one arena instead of
// individual std::vector heap churn keeps the per-slot refresh free of
// malloc traffic and -- because the arena records its high-water mark --
// makes the scratch footprint observable: harvest_sim prints
// `arena_high_water_bytes` with its stderr telemetry, next to wall time and
// peak RSS.
//
// Lifetime rules (documented in DESIGN.md "Memory layout and sharding"):
//   * Allocate/AllocateArray return storage valid until the next Reset().
//   * Reset() retires every outstanding allocation at once; it recycles the
//     largest block and drops the rest, so steady-state use settles into a
//     single block with zero allocator traffic.
//   * The arena never runs destructors: only trivially-destructible types
//     may live in it (enforced by a static_assert in AllocateArray).

#ifndef HARVEST_SRC_UTIL_ARENA_H_
#define HARVEST_SRC_UTIL_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

namespace harvest {

class Arena {
 public:
  explicit Arena(size_t initial_capacity = 4096) : min_block_bytes_(initial_capacity) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Raw allocation, aligned to `alignment` (a power of two). Memory is
  // zero-initialized so callers can treat fresh arrays as value-initialized.
  void* Allocate(size_t bytes, size_t alignment) {
    size_t offset = (cursor_ + alignment - 1) & ~(alignment - 1);
    if (current_ == nullptr || offset + bytes > current_->size()) {
      AddBlock(bytes + alignment);
      offset = (cursor_ + alignment - 1) & ~(alignment - 1);
    }
    void* out = current_->data() + offset;
    cursor_ = offset + bytes;
    used_bytes_ = block_bytes_before_current_ + cursor_;
    if (used_bytes_ > high_water_bytes_) {
      high_water_bytes_ = used_bytes_;
    }
    std::memset(out, 0, bytes);
    return out;
  }

  // Typed array of `count` zero-initialized elements, valid until Reset().
  template <typename T>
  T* AllocateArray(size_t count) {
    static_assert(std::is_trivially_destructible<T>::value,
                  "Arena never runs destructors");
    if (count == 0) {
      return nullptr;
    }
    return static_cast<T*>(Allocate(count * sizeof(T), alignof(T)));
  }

  // Retires all outstanding allocations. Keeps only the largest block so
  // repeated same-shape workloads stop allocating after the first pass.
  void Reset() {
    size_t best = 0;
    int best_index = -1;
    for (size_t i = 0; i < blocks_.size(); ++i) {
      if (blocks_[i]->size() >= best) {
        best = blocks_[i]->size();
        best_index = static_cast<int>(i);
      }
    }
    if (best_index >= 0) {
      std::unique_ptr<std::vector<char>> keep = std::move(blocks_[static_cast<size_t>(best_index)]);
      blocks_.clear();
      blocks_.push_back(std::move(keep));
      current_ = blocks_.back().get();
    }
    block_bytes_before_current_ = 0;
    cursor_ = 0;
    used_bytes_ = 0;
  }

  // Bytes currently handed out (including alignment padding).
  size_t used_bytes() const { return used_bytes_; }
  // Largest `used_bytes()` ever observed; survives Reset().
  size_t high_water_bytes() const { return high_water_bytes_; }

 private:
  void AddBlock(size_t at_least) {
    size_t size = min_block_bytes_;
    if (current_ != nullptr) {
      size = current_->size() * 2;
      block_bytes_before_current_ += cursor_;
    }
    if (size < at_least) {
      size = at_least;
    }
    blocks_.push_back(std::make_unique<std::vector<char>>(size));
    current_ = blocks_.back().get();
    cursor_ = 0;
  }

  std::vector<std::unique_ptr<std::vector<char>>> blocks_;
  std::vector<char>* current_ = nullptr;
  size_t min_block_bytes_;
  size_t cursor_ = 0;                      // bump offset inside current_
  size_t block_bytes_before_current_ = 0;  // bytes consumed in retired blocks
  size_t used_bytes_ = 0;
  size_t high_water_bytes_ = 0;
};

}  // namespace harvest

#endif  // HARVEST_SRC_UTIL_ARENA_H_
