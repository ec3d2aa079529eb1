// The NameNode's re-replication queue: pending heals popped in (ready_time,
// push order) order. That order is a total order fixed by the push sequence
// alone, so the placement policy consumes its RNG stream identically on
// every run.
//
// Heal completions tie constantly (every block one reimage wiped whose
// source is idle completes at the same instant; a storage storm pushes about
// 19 heals per distinct ready time), so each distinct ready time gets one
// FIFO bucket. A min-heap orders the open buckets by time and a lookup-only
// hash map, keyed by the time's bit pattern, finds the open bucket of a
// pushed time. Entries are threaded through one node pool with a free list,
// and a closed bucket's map node is kept for the next bucket to open, so a
// push or pop allocates only when the node pool or the bucket table (the
// heap, the map and its kept nodes) grows.

#ifndef HARVEST_SRC_STORAGE_HEAL_QUEUE_H_
#define HARVEST_SRC_STORAGE_HEAL_QUEUE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <unordered_map>
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
    auto open = open_.find(key);
    if (open != open_.end()) {
      Bucket& bucket = open->second;
      nodes_[static_cast<size_t>(bucket.tail)].next = node;
      bucket.tail = node;
      return;
    }
    if (spare_.empty()) {
      open = open_.emplace(key, Bucket{}).first;
    } else {
      spare_.back().key() = key;
      open = open_.insert(std::move(spare_.back())).position;
      spare_.pop_back();
    }
    open->second = Bucket{node, node};
    heap_.push_back(HeapEntry{heal.ready_time, &open->second});
    std::push_heap(heap_.begin(), heap_.end(), Later);
  }

  // Removes and returns the earliest heal; the queue must not be empty.
  PendingHeal Pop() {
    Bucket& bucket = *heap_.front().bucket;
    const int32_t node = bucket.head;
    Node& entry = nodes_[static_cast<size_t>(node)];
    bucket.head = entry.next;
    entry.next = free_node_;
    free_node_ = node;
    --size_;
    if (bucket.head < 0) {
      spare_.push_back(open_.extract(KeyOf(heap_.front().time)));
      std::pop_heap(heap_.begin(), heap_.end(), Later);
      heap_.pop_back();
    }
    return entry.heal;
  }

 private:
  struct Node {
    PendingHeal heal;
    int32_t next = -1;  // next node of the bucket or of the free list
  };
  struct Bucket {
    int32_t head = -1;
    int32_t tail = -1;
  };
  struct HeapEntry {
    double time = 0.0;
    Bucket* bucket = nullptr;  // map nodes never move, not even on rehash
  };
  using BucketMap = std::unordered_map<uint64_t, Bucket>;

  // Adding +0.0 folds -0.0 into +0.0, the time it compares equal to.
  static uint64_t KeyOf(double ready_time) {
    return std::bit_cast<uint64_t>(ready_time + 0.0);
  }
  static bool Later(const HeapEntry& a, const HeapEntry& b) { return a.time > b.time; }

  std::vector<Node> nodes_;
  int32_t free_node_ = -1;
  int64_t size_ = 0;
  BucketMap open_;
  std::vector<BucketMap::node_type> spare_;
  // Min-heap of the open buckets; their times are pairwise distinct.
  std::vector<HeapEntry> heap_;
};

}  // namespace harvest

#endif  // HARVEST_SRC_STORAGE_HEAL_QUEUE_H_
