// Utilization scaling used by the simulator to sweep the full utilization
// spectrum (paper §6.1): linear scaling multiplies the series by a constant
// and saturates at 100%; root scaling applies a power function so that high
// utilizations move less than low ones, avoiding saturation artifacts.

#ifndef HARVEST_SRC_TRACE_SCALING_H_
#define HARVEST_SRC_TRACE_SCALING_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/trace/utilization_trace.h"

namespace harvest {

enum class ScalingMethod {
  kLinear = 0,  // u' = min(1, f * u)
  kRoot = 1,    // u' = u^p  (p < 1 raises utilization, p > 1 lowers it)
};

// Scales a single trace with a fixed factor/power.
UtilizationTrace ScaleTrace(const UtilizationTrace& trace, ScalingMethod method, double parameter);

// Decides most of a solve's probes without a pass over the samples. It bins
// the samples once: exact zeros apart, then kBins equal bins over (0, 1].
// Scaling is monotone in the sample, so a pass's sum lies between the counts
// times the scaled low edges and the counts times the scaled high edges,
// widened by a slack for pow's error and the sums' rounding. A list with
// fewer samples than twice its nonempty bins keeps the bins off: a bound
// would then cost more than the pass.
class ScaledSumBounds {
 public:
  static constexpr int kBins = 4096;

  explicit ScaledSumBounds(std::span<const UtilizationTrace* const> traces);

  // When both bounds on the average of the pass at `parameter` (a factor
  // >= 0 or a power > 0) sit on one side of `target_average`, returns their
  // midpoint, which sits on the pass's side: `*settled < target_average`
  // exactly when the pass's average is below the target. No value when the
  // bounds straddle the target, there are no samples, a sample is NaN, or
  // the list is too short for its bins (the bins are then off and every
  // probe takes a pass).
  std::optional<double> SettledAverage(ScalingMethod method, double parameter,
                                       double target_average) const;

 private:
  std::vector<int64_t> counts_;  // samples per bin; empty when the bins are off
  int64_t samples_ = 0;          // every sample, zeros included
};

// Finds the parameter at which the average of all traces, after scaling,
// crosses `target_average` (in (0, 1)): narrows the bracket [0, 200]
// (linear) or [0.01, 50] (root) to the two adjacent doubles on either side
// of the crossing and returns their midpoint as rounded, in at most 80
// probes. The result is bit for bit what 80 rounds of plain bisection
// return, including for a linear crossing so close to 0 (below about
// 7.5e-7) that 80 halvings stop short of adjacent doubles. A probe asks
// whether the scaled average at one candidate is below the target;
// ScaledSumBounds settles most far probes, and the rest take a full pass
// over the samples. A pass sums the samples in list order, so a trace listed
// twice counts twice: a fleet lists its servers' own traces, one per server
// in ServerId order. The traces themselves are not modified. If
// `evaluations` is non-null it receives the number of probes (the budget
// unit), and if `passes` is non-null the number of full passes among them.
double SolveScalingParameter(std::span<const UtilizationTrace* const> traces, ScalingMethod method,
                             double target_average, int* evaluations = nullptr,
                             int* passes = nullptr);

}  // namespace harvest

#endif  // HARVEST_SRC_TRACE_SCALING_H_
