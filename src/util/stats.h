// Descriptive statistics and empirical CDFs: the spectrum's moments, the
// co-simulation's per-window latency and job means, and the characterization
// study's reimage-rate distributions.

#ifndef HARVEST_SRC_UTIL_STATS_H_
#define HARVEST_SRC_UTIL_STATS_H_

#include <cstddef>
#include <vector>

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

// Empirical CDF over a sample set.
class Cdf {
 public:
  explicit Cdf(std::vector<double> samples);

  // Fraction of samples <= x, in [0, 1].
  double At(double x) const;
  // Inverse CDF: smallest sample value v with P[X <= v] >= q (q in [0,1]).
  double Quantile(double q) const;

 private:
  std::vector<double> sorted_;
};

}  // namespace harvest

#endif  // HARVEST_SRC_UTIL_STATS_H_
