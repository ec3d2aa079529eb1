// CPU-utilization time series sampled at a fixed slot width (the paper's
// AutoPilot telemetry records utilization every two minutes; §3.2).

#ifndef HARVEST_SRC_TRACE_UTILIZATION_TRACE_H_
#define HARVEST_SRC_TRACE_UTILIZATION_TRACE_H_

#include <cstddef>
#include <vector>

namespace harvest {

// Telemetry slot width in seconds (2 minutes, matching AutoPilot).
inline constexpr double kSlotSeconds = 120.0;
// Slots in one 30-day month at 2-minute resolution.
inline constexpr size_t kSlotsPerMonth = 30 * 24 * 30;  // 21600
// Slots in one day.
inline constexpr size_t kSlotsPerDay = 24 * 30;  // 720

// A utilization time series with values in [0, 1].
class UtilizationTrace {
 public:
  UtilizationTrace() = default;
  explicit UtilizationTrace(std::vector<double> samples);

  // Value of the slot containing time `seconds` (wraps around at the end so a
  // one-month trace can drive longer simulations).
  double AtTime(double seconds) const;
  double AtSlot(size_t slot) const;

  size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double duration_seconds() const { return static_cast<double>(samples_.size()) * kSlotSeconds; }
  const std::vector<double>& samples() const { return samples_; }

  double Average() const;
  double Peak() const;
  // Average over a window of slots [first, first + count), wrapping.
  double WindowAverage(size_t first, size_t count) const;

 private:
  std::vector<double> samples_;
};

}  // namespace harvest

#endif  // HARVEST_SRC_TRACE_UTILIZATION_TRACE_H_
