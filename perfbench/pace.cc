// perfbench_pace: samples how fast the CPU it runs on is right now.
//
//   perfbench_pace
//
// Every kIntervalMs milliseconds it times one fixed piece of integer work
// (eight independent multiply-add lanes) and records when it started and how
// long it took. When its standard input closes it prints one line per sample,
// "<start ns> <duration ns>", both read from CLOCK_MONOTONIC, and exits.
//
// The runner pins itself, this sampler and every program it times to one
// CPU. On a shared host that CPU's speed drifts with what the host's other
// tenants do; the sampler wakes beside the timed program, so the samples
// taken while the program ran give the speed it ran at. The work touches no
// memory beyond a few stack words, so its time does not depend on what the
// timed program left in the caches.
//
// Exit status: 0 on success, 2 on a usage error.

#include <poll.h>
#include <time.h>

#include <cstdint>
#include <cstdio>
#include <vector>

namespace {

constexpr int kIntervalMs = 20;
constexpr int kRounds = 12000;
constexpr int kLanes = 8;

volatile uint64_t g_seed = 88172645463325252ULL;
volatile uint64_t g_sink = 0;

int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

__attribute__((noinline)) uint64_t Work() {
  uint64_t lanes[kLanes];
  for (int k = 0; k < kLanes; ++k) {
    lanes[k] = g_seed + static_cast<uint64_t>(k);
  }
  for (int i = 0; i < kRounds; ++i) {
    for (int k = 0; k < kLanes; ++k) {
      lanes[k] = lanes[k] * 6364136223846793005ULL + static_cast<uint64_t>(2 * k + 1);
    }
  }
  uint64_t sum = 0;
  for (int k = 0; k < kLanes; ++k) {
    sum += lanes[k];
  }
  return sum;
}

}  // namespace

int main(int argc, char** /*argv*/) {
  if (argc != 1) {
    std::fprintf(stderr, "usage: perfbench_pace\n");
    return 2;
  }
  std::vector<int64_t> starts;
  std::vector<int64_t> durations;
  pollfd input{0, POLLIN, 0};
  // poll() doubles as the sleep: it returns 0 after the interval, and
  // nonzero once stdin is readable or closed.
  while (poll(&input, 1, kIntervalMs) == 0) {
    const int64_t start = NowNs();
    g_sink = Work();
    durations.push_back(NowNs() - start);
    starts.push_back(start);
  }
  for (size_t i = 0; i < starts.size(); ++i) {
    std::printf("%lld %lld\n", static_cast<long long>(starts[i]),
                static_cast<long long>(durations[i]));
  }
  return 0;
}
