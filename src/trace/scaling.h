// Utilization scaling used by the simulator to sweep the full utilization
// spectrum (paper §6.1): linear scaling multiplies the series by a constant
// and saturates at 100%; root scaling applies a power function so that high
// utilizations move less than low ones, avoiding saturation artifacts.

#ifndef HARVEST_SRC_TRACE_SCALING_H_
#define HARVEST_SRC_TRACE_SCALING_H_

#include <vector>

#include "src/trace/utilization_trace.h"

namespace harvest {

enum class ScalingMethod {
  kLinear = 0,  // u' = min(1, f * u)
  kRoot = 1,    // u' = u^p  (p < 1 raises utilization, p > 1 lowers it)
};

const char* ScalingMethodName(ScalingMethod method);

// Scales a single trace with a fixed factor/power.
UtilizationTrace ScaleTrace(const UtilizationTrace& trace, ScalingMethod method, double parameter);

// Finds the parameter at which the average of all traces, after scaling,
// crosses `target_average` (in (0, 1)): narrows the bracket [0, 200]
// (linear) or [0.01, 50] (root) to the two adjacent doubles on either side
// of the crossing and returns their midpoint as rounded, in at most 80
// passes over the samples. The result is bit for bit what 80 rounds of plain
// bisection return, including for a linear crossing so close to 0 (below
// about 7.5e-7) that 80 halvings stop short of adjacent doubles. The traces
// themselves are not modified. If `evaluations` is non-null it receives the
// number of passes made.
double SolveScalingParameter(const std::vector<UtilizationTrace>& traces, ScalingMethod method,
                             double target_average, int* evaluations = nullptr);

// Convenience: scales every trace so the population average hits
// `target_average`.
std::vector<UtilizationTrace> ScaleToAverage(const std::vector<UtilizationTrace>& traces,
                                             ScalingMethod method, double target_average);

}  // namespace harvest

#endif  // HARVEST_SRC_TRACE_SCALING_H_
