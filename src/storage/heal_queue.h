// The NameNode's re-replication queue: pending heals popped in (ready_time,
// push order) order. That order is a total order fixed by the push sequence
// alone, so the placement policy consumes its RNG stream identically on
// every run.
//
// Heal completions tie constantly (every block one reimage wiped whose
// source is idle completes at the same instant; a storage storm pushes about
// 19 heals per distinct ready time), so each distinct ready time gets one
// FIFO bucket. A min-heap orders the open buckets by time, and an index
// finds the open bucket of a pushed time: an open-addressing table keyed by
// the time's bit pattern (power-of-two slots, at most half full, linear
// probing, backward-shift deletion, so no tombstones). Heap entries and
// index slots hold bucket numbers; closed buckets and heal entries go on
// free lists. A push or pop therefore allocates only when the node pool,
// the bucket list, the heap or the index grows.

#ifndef HARVEST_SRC_STORAGE_HEAL_QUEUE_H_
#define HARVEST_SRC_STORAGE_HEAL_QUEUE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/types.h"

namespace harvest {

struct PendingHeal {
  double ready_time = 0.0;
  BlockId block = 0;
  // kInvalidServer marks a probe entry: every surviving replica was behind
  // a partitioned ToR at queue time, so nothing is copied -- the pop just
  // re-evaluates reachability (with backoff).
  ServerId source = kInvalidServer;
  // Retries so far (source died, partitioned away, or no target); drives
  // the exponential backoff.
  int attempts = 0;
};

class HealQueue {
 public:
  bool empty() const { return heap_.empty(); }
  int64_t size() const { return size_; }
  // Ready time of the next Pop(); the queue must not be empty.
  double next_ready_time() const { return heap_.front().time; }

  void Push(const PendingHeal& heal) {
    int32_t node = free_node_;
    if (node < 0) {
      node = static_cast<int32_t>(nodes_.size());
      nodes_.emplace_back();
    } else {
      free_node_ = nodes_[static_cast<size_t>(node)].next;
    }
    nodes_[static_cast<size_t>(node)] = Node{heal, -1};
    ++size_;
    const uint64_t key = KeyOf(heal.ready_time);
    size_t slot = FindSlot(key);
    if (index_[slot].bucket >= 0) {
      Bucket& bucket = buckets_[static_cast<size_t>(index_[slot].bucket)];
      nodes_[static_cast<size_t>(bucket.tail)].next = node;
      bucket.tail = node;
      return;
    }
    // A new ready time opens a bucket. Keep the index at most half full.
    if (2 * (heap_.size() + 1) > index_.size()) {
      GrowIndex();
      slot = FindSlot(key);
    }
    int32_t bucket = free_bucket_;
    if (bucket < 0) {
      bucket = static_cast<int32_t>(buckets_.size());
      buckets_.emplace_back();
    } else {
      free_bucket_ = buckets_[static_cast<size_t>(bucket)].tail;
    }
    buckets_[static_cast<size_t>(bucket)] = Bucket{node, node};
    index_[slot] = Slot{key, bucket};
    heap_.push_back(HeapEntry{heal.ready_time, bucket});
    std::push_heap(heap_.begin(), heap_.end(), Later);
  }

  // Removes and returns the earliest heal; the queue must not be empty.
  PendingHeal Pop() {
    const int32_t bucket_id = heap_.front().bucket;
    Bucket& bucket = buckets_[static_cast<size_t>(bucket_id)];
    const int32_t node = bucket.head;
    Node& entry = nodes_[static_cast<size_t>(node)];
    bucket.head = entry.next;
    entry.next = free_node_;
    free_node_ = node;
    --size_;
    if (bucket.head < 0) {
      EraseSlot(FindSlot(KeyOf(heap_.front().time)));
      bucket.tail = free_bucket_;
      free_bucket_ = bucket_id;
      std::pop_heap(heap_.begin(), heap_.end(), Later);
      heap_.pop_back();
    }
    return entry.heal;
  }

  // Test hook: the index's shape, after checking it against the open
  // buckets. `front_close_shifts` says whether closing the earliest bucket
  // (its last Pop) moves another bucket's slot back, i.e. whether that
  // bucket sits inside a probe run.
  struct IndexShape {
    size_t slots = 0;
    size_t open_buckets = 0;
    bool front_close_shifts = false;
  };
  // Returns false and fills `error` when an open bucket's time does not
  // probe to its slot, a slot holds a closed bucket, or the table is more
  // than half full.
  bool AuditIndexForTest(IndexShape* shape, std::string* error) const {
    *shape = IndexShape{index_.size(), heap_.size(), false};
    size_t occupied = 0;
    for (const Slot& slot : index_) {
      occupied += slot.bucket >= 0 ? 1 : 0;
    }
    if (occupied != heap_.size() || 2 * occupied > index_.size()) {
      *error = std::to_string(occupied) + " of " + std::to_string(index_.size()) +
               " slots occupied for " + std::to_string(heap_.size()) + " open buckets";
      return false;
    }
    for (const HeapEntry& entry : heap_) {
      const size_t slot = FindSlot(KeyOf(entry.time));
      if (index_[slot].bucket != entry.bucket) {
        *error = "ready time " + std::to_string(entry.time) + " does not find its bucket";
        return false;
      }
    }
    if (!heap_.empty()) {
      const size_t next = (FindSlot(KeyOf(heap_.front().time)) + 1) & (index_.size() - 1);
      shape->front_close_shifts =
          index_[next].bucket >= 0 && HomeSlot(index_[next].key) != next;
    }
    return true;
  }

 private:
  struct Node {
    PendingHeal heal;
    int32_t next = -1;  // next node of the bucket or of the free list
  };
  struct Bucket {
    int32_t head = -1;
    int32_t tail = -1;  // a closed bucket's: the next closed bucket
  };
  struct HeapEntry {
    double time = 0.0;
    int32_t bucket = -1;
  };
  struct Slot {
    uint64_t key = 0;
    int32_t bucket = -1;  // -1: empty
  };

  // Adding +0.0 folds -0.0 into +0.0, the time it compares equal to.
  static uint64_t KeyOf(double ready_time) {
    return std::bit_cast<uint64_t>(ready_time + 0.0);
  }
  static bool Later(const HeapEntry& a, const HeapEntry& b) { return a.time > b.time; }

  // Fibonacci hashing: the product's top bits depend on every key bit.
  size_t HomeSlot(uint64_t key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> index_shift_);
  }
  // The slot holding `key`, or the empty slot ending its probe run.
  size_t FindSlot(uint64_t key) const {
    const size_t mask = index_.size() - 1;
    size_t slot = HomeSlot(key);
    while (index_[slot].bucket >= 0 && index_[slot].key != key) {
      slot = (slot + 1) & mask;
    }
    return slot;
  }
  // Empties `hole` and shifts back each later entry of its probe run whose
  // home slot does not lie after the hole, so every key stays reachable from
  // its home without crossing an empty slot.
  void EraseSlot(size_t hole) {
    const size_t mask = index_.size() - 1;
    for (size_t next = (hole + 1) & mask; index_[next].bucket >= 0; next = (next + 1) & mask) {
      const size_t home = HomeSlot(index_[next].key);
      if (((next - home) & mask) >= ((next - hole) & mask)) {
        index_[hole] = index_[next];
        hole = next;
      }
    }
    index_[hole].bucket = -1;
  }
  void GrowIndex() {
    std::vector<Slot> old = std::exchange(index_, {});
    index_.assign(2 * old.size(), Slot{});
    index_shift_ = 64 - std::countr_zero(index_.size());
    for (const Slot& slot : old) {
      if (slot.bucket >= 0) {
        index_[FindSlot(slot.key)] = slot;
      }
    }
  }

  std::vector<Node> nodes_;
  int32_t free_node_ = -1;
  int64_t size_ = 0;
  std::vector<Bucket> buckets_;
  int32_t free_bucket_ = -1;
  // Open-addressing index: ready-time key -> open bucket. Its size is a
  // power of two, and index_shift_ is 64 - log2(size).
  static constexpr int kInitialSlotsLog2 = 4;
  std::vector<Slot> index_ = std::vector<Slot>(size_t{1} << kInitialSlotsLog2);
  int index_shift_ = 64 - kInitialSlotsLog2;
  // Min-heap of the open buckets; their times are pairwise distinct.
  std::vector<HeapEntry> heap_;
};

}  // namespace harvest

#endif  // HARVEST_SRC_STORAGE_HEAL_QUEUE_H_
