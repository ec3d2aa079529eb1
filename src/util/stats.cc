#include "src/util/stats.h"

#include <algorithm>
#include <cmath>

namespace harvest {

void SummaryStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double SummaryStats::variance() const {
  if (count_ == 0) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_);
}

double SummaryStats::stddev() const { return std::sqrt(variance()); }

Cdf::Cdf(std::vector<double> samples) : sorted_(std::move(samples)) {
  std::sort(sorted_.begin(), sorted_.end());
}

double Cdf::At(double x) const {
  if (sorted_.empty()) {
    return 0.0;
  }
  auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) / static_cast<double>(sorted_.size());
}

double Cdf::Quantile(double q) const {
  if (sorted_.empty()) {
    return 0.0;
  }
  double clamped = std::clamp(q, 0.0, 1.0);
  size_t idx = static_cast<size_t>(std::ceil(clamped * static_cast<double>(sorted_.size())));
  if (idx > 0) {
    --idx;
  }
  idx = std::min(idx, sorted_.size() - 1);
  return sorted_[idx];
}

}  // namespace harvest
