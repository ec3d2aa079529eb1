// A set of dense non-negative ids (job ids, server ids) kept as a bitmap.
//
// Insert, Erase and Contains are O(1) and allocate only when an id lands
// past the bitmap's end. Next(id) returns the smallest member at or above
// `id`, so a sweep `for (m = Next(0); m >= 0; m = Next(m + 1))` visits the
// members in ascending id order -- the order an ordered std::set iterates
// in. Because each step rescans from the visited id, the member being
// visited may be inserted or erased mid-sweep, exactly as with a std::set
// iterator advanced before the visit.

#ifndef HARVEST_SRC_UTIL_DENSE_ID_SET_H_
#define HARVEST_SRC_UTIL_DENSE_ID_SET_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace harvest {

class DenseIdSet {
 public:
  void Insert(int64_t id) {
    const size_t word = static_cast<size_t>(id) >> 6;
    if (word >= words_.size()) {
      words_.resize(word + 1, 0);
    }
    words_[word] |= Bit(id);
  }

  void Erase(int64_t id) {
    const size_t word = static_cast<size_t>(id) >> 6;
    if (word < words_.size()) {
      words_[word] &= ~Bit(id);
    }
  }

  bool Contains(int64_t id) const {
    const size_t word = static_cast<size_t>(id) >> 6;
    return word < words_.size() && (words_[word] & Bit(id)) != 0;
  }

  // The smallest member >= `id` (id >= 0), or -1 when there is none.
  int64_t Next(int64_t id) const {
    size_t word = static_cast<size_t>(id) >> 6;
    if (word >= words_.size()) {
      return -1;
    }
    uint64_t bits = words_[word] & (~uint64_t{0} << (id & 63));
    while (bits == 0) {
      if (++word == words_.size()) {
        return -1;
      }
      bits = words_[word];
    }
    return static_cast<int64_t>(word * 64) + std::countr_zero(bits);
  }

 private:
  static uint64_t Bit(int64_t id) { return uint64_t{1} << (id & 63); }

  std::vector<uint64_t> words_;
};

}  // namespace harvest

#endif  // HARVEST_SRC_UTIL_DENSE_ID_SET_H_
