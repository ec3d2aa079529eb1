#include "src/trace/utilization_trace.h"

#include <algorithm>
#include <cmath>

namespace harvest {

UtilizationTrace::UtilizationTrace(std::vector<double> samples) : samples_(std::move(samples)) {
  for (double& v : samples_) {
    v = std::clamp(v, 0.0, 1.0);
  }
}

double UtilizationTrace::AtTime(double seconds) const {
  if (samples_.empty()) {
    return 0.0;
  }
  double slot = std::floor(seconds / kSlotSeconds);
  size_t idx = static_cast<size_t>(std::max(0.0, slot)) % samples_.size();
  return samples_[idx];
}

double UtilizationTrace::AtSlot(size_t slot) const {
  if (samples_.empty()) {
    return 0.0;
  }
  return samples_[slot % samples_.size()];
}

double UtilizationTrace::Average() const {
  if (samples_.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double v : samples_) {
    sum += v;
  }
  return sum / static_cast<double>(samples_.size());
}

double UtilizationTrace::Peak() const {
  double peak = 0.0;
  for (double v : samples_) {
    peak = std::max(peak, v);
  }
  return peak;
}

double UtilizationTrace::WindowAverage(size_t first, size_t count) const {
  if (samples_.empty() || count == 0) {
    return 0.0;
  }
  double sum = 0.0;
  for (size_t i = 0; i < count; ++i) {
    sum += AtSlot(first + i);
  }
  return sum / static_cast<double>(count);
}

}  // namespace harvest
