// Differential test of the NameNode's heal queue (src/storage/heal_queue.h)
// against the queue it replaced: a binary heap on the (ready_time, seq)
// total order, seq being the push sequence number. Randomized push / drain
// sequences with heavy ready-time ties, pushes into the bucket being
// drained, pushes earlier than the current minimum, signed zeros and drains
// up to +inf must pop exactly the reference's entries in the reference's
// order. A second test holds push and pop allocation-free once the queue
// has grown to its working size.

#include "src/storage/heal_queue.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>
#include <queue>
#include <set>
#include <vector>

#include "src/util/rng.h"

namespace {

int64_t g_allocations = 0;

}  // namespace

// Counts every allocation of this binary (the steady-state test below reads
// the count around a window).
void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* memory = std::malloc(size == 0 ? 1 : size)) {
    return memory;
  }
  throw std::bad_alloc();
}
void operator delete(void* memory) noexcept { std::free(memory); }
void operator delete(void* memory, std::size_t) noexcept { std::free(memory); }

namespace harvest {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The reference: one std::priority_queue popping the (ready_time, seq)
// minimum, seq counting pushes.
class ReferenceQueue {
 public:
  void Push(const PendingHeal& heal) { heap_.push(Entry{heal, next_seq_++}); }
  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }
  const PendingHeal& top() const { return heap_.top().heal; }
  void pop() { heap_.pop(); }

 private:
  struct Entry {
    PendingHeal heal;
    uint64_t seq = 0;
  };
  struct PopsAfter {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.heal.ready_time > b.heal.ready_time ||
             (a.heal.ready_time == b.heal.ready_time && a.seq > b.seq);
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, PopsAfter> heap_;
  uint64_t next_seq_ = 0;
};

// What one randomized sequence exercised, summed over all sequences.
struct Coverage {
  int64_t pushes = 0;
  int64_t pops = 0;
  int64_t drained_bucket_pushes = 0;
  int64_t earlier_than_min_pushes = 0;
  int64_t negative_zero_pops = 0;
  int64_t positive_zero_pops = 0;
  int64_t infinite_drains = 0;
  std::set<double> ready_times;
};

// A ready time at or after `clock`: mostly on a coarse 120 s grid (heavy
// ties), sometimes a signed zero, sometimes an arbitrary double.
double DrawReadyTime(Rng& rng, double clock) {
  const uint64_t kind = rng.NextBounded(10);
  if (kind == 0) {
    return rng.Bernoulli(0.5) ? -0.0 : 0.0;
  }
  if (kind == 1) {
    return rng.Uniform(clock, clock + 5000.0);
  }
  return 120.0 * (std::floor(clock / 120.0) + static_cast<double>(rng.NextBounded(24)));
}

void RunDifferentialSequence(uint64_t seed, Coverage* coverage) {
  Rng rng(seed);
  HealQueue queue;
  ReferenceQueue reference;
  BlockId next_block = 0;
  auto push = [&](double ready_time) {
    const PendingHeal heal{ready_time, next_block++,
                           static_cast<ServerId>(rng.NextBounded(64)) - 1,
                           static_cast<int>(rng.NextBounded(4))};
    queue.Push(heal);
    reference.Push(heal);
    ++coverage->pushes;
    coverage->ready_times.insert(ready_time);
  };

  double clock = 0.0;
  for (int step = 0; step < 400; ++step) {
    const int burst = static_cast<int>(rng.NextBounded(12));
    for (int i = 0; i < burst; ++i) {
      push(DrawReadyTime(rng, clock));
    }
    if (!queue.empty() && rng.Bernoulli(0.3)) {
      push(queue.next_ready_time() - 120.0 * static_cast<double>(1 + rng.NextBounded(4)));
      ++coverage->earlier_than_min_pushes;
    }
    clock += rng.Uniform(0.0, 1500.0);
    // Drain everything due, pushing into the bucket being drained and ahead
    // of it as the NameNode's heal loop does (a requeue or a follow-up copy).
    const bool infinite = step == 399 || rng.Bernoulli(0.05);
    const double now = infinite ? kInf : clock;
    coverage->infinite_drains += infinite ? 1 : 0;
    while (!queue.empty() && queue.next_ready_time() <= now) {
      ASSERT_FALSE(reference.empty()) << "seed " << seed << " step " << step;
      ASSERT_EQ(queue.next_ready_time(), reference.top().ready_time)
          << "seed " << seed << " step " << step;
      const PendingHeal got = queue.Pop();
      const PendingHeal want = reference.top();
      reference.pop();
      ASSERT_EQ(std::bit_cast<uint64_t>(got.ready_time), std::bit_cast<uint64_t>(want.ready_time))
          << "seed " << seed << " step " << step << ": " << got.ready_time << " vs "
          << want.ready_time;
      ASSERT_EQ(got.block, want.block) << "seed " << seed << " step " << step;
      ASSERT_EQ(got.source, want.source) << "seed " << seed << " step " << step;
      ASSERT_EQ(got.attempts, want.attempts) << "seed " << seed << " step " << step;
      ++coverage->pops;
      if (got.ready_time == 0.0) {
        ++(std::signbit(got.ready_time) ? coverage->negative_zero_pops
                                        : coverage->positive_zero_pops);
      }
      if (rng.Bernoulli(0.2)) {
        push(got.ready_time);
        ++coverage->drained_bucket_pushes;
      }
      if (rng.Bernoulli(0.1)) {
        push(got.ready_time + 120.0 * static_cast<double>(rng.NextBounded(3)));
      }
    }
    ASSERT_TRUE(reference.empty() || reference.top().ready_time > now)
        << "seed " << seed << " step " << step << ": the reference has a due heal left";
    ASSERT_EQ(queue.size(), static_cast<int64_t>(reference.size()));
    ASSERT_EQ(queue.empty(), reference.empty());
  }
  EXPECT_TRUE(queue.empty());
}

TEST(HealQueueTest, PopsTheReferenceOrderExactly) {
  Coverage coverage;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    RunDifferentialSequence(seed, &coverage);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  // Every pushed heal came back out, and the sequences hit each case.
  EXPECT_EQ(coverage.pops, coverage.pushes);
  EXPECT_GT(coverage.pushes, 100000);
  EXPECT_LT(static_cast<int64_t>(coverage.ready_times.size()) * 4, coverage.pushes)
      << "too few ready-time ties";
  EXPECT_GT(coverage.drained_bucket_pushes, 1000);
  EXPECT_GT(coverage.earlier_than_min_pushes, 1000);
  EXPECT_GT(coverage.negative_zero_pops, 100);
  EXPECT_GT(coverage.positive_zero_pops, 100);
  EXPECT_GT(coverage.infinite_drains, 60);
}

TEST(HealQueueTest, SteadyStatePushAndPopDoNotAllocate) {
  HealQueue queue;
  // 1,000 heals over 37 ready times, then a full drain: the same working
  // size every cycle.
  auto cycle = [&queue] {
    for (int i = 0; i < 1000; ++i) {
      queue.Push(PendingHeal{120.0 * (i % 37), i, 0, 0});
    }
    while (!queue.empty()) {
      queue.Pop();
    }
  };
  cycle();  // grows the node pool, the heap and the bucket map
  const int64_t before = g_allocations;
  cycle();
  cycle();
  EXPECT_EQ(g_allocations, before);
}

}  // namespace
}  // namespace harvest
