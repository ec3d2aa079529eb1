// Descriptive statistics: the spectrum's moments, the clustering service's
// class averages, and the co-simulation's per-window latency and job means.

#ifndef HARVEST_SRC_UTIL_STATS_H_
#define HARVEST_SRC_UTIL_STATS_H_

#include <cstddef>

namespace harvest {

// Streaming mean / variance / extrema accumulator (Welford).
class SummaryStats {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double sum() const { return sum_; }
  // Population variance / standard deviation.
  double variance() const;
  double stddev() const;

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

}  // namespace harvest

#endif  // HARVEST_SRC_UTIL_STATS_H_
