#include "src/trace/scaling.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/logging.h"

namespace harvest {

namespace {

// ScaledAverage passes a solve may make: what the 80 rounds of plain
// bisection whose result it reproduces always spend.
constexpr int kMaxEvaluations = 80;

double ApplyScale(double u, ScalingMethod method, double parameter) {
  switch (method) {
    case ScalingMethod::kLinear:
      return std::min(1.0, parameter * u);
    case ScalingMethod::kRoot:
      return u <= 0.0 ? 0.0 : std::pow(u, parameter);
  }
  return u;
}

double ScaledAverage(const std::vector<UtilizationTrace>& traces, ScalingMethod method,
                     double parameter) {
  double sum = 0.0;
  size_t count = 0;
  for (const auto& trace : traces) {
    for (double v : trace.samples()) {
      sum += ApplyScale(v, method, parameter);
      ++count;
    }
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

// Upper bound on the midpoint steps that narrow [lo, hi] to two adjacent
// doubles, wherever the crossing lies. Every double in the bracket is a
// multiple of the gap just above lo, and a midpoint step keeps at most half
// of those gaps (rounded up), so floor(log2(gaps)) + 1 steps suffice; the
// extra step is a margin. Infinite when lo is 0.
double BisectionStepsToAdjacency(double lo, double hi) {
  const double gap = std::nextafter(lo, hi) - lo;
  return std::logb((hi - lo) / gap) + 2.0;
}

// Anderson-Bjorck weight for the endpoint a probe did not replace, when the
// probe replaced the same endpoint as the probe before it: `f_new` is the
// probe's residual and `f_old` the residual of the endpoint it replaced.
double AndersonBjorckWeight(double f_new, double f_old) {
  const double m = 1.0 - f_new / f_old;
  return m > 0.0 ? m : 0.5;  // also 0.5 when m is NaN
}

}  // namespace

const char* ScalingMethodName(ScalingMethod method) {
  switch (method) {
    case ScalingMethod::kLinear:
      return "linear";
    case ScalingMethod::kRoot:
      return "root";
  }
  return "unknown";
}

UtilizationTrace ScaleTrace(const UtilizationTrace& trace, ScalingMethod method,
                            double parameter) {
  std::vector<double> scaled(trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    scaled[i] = ApplyScale(trace.AtSlot(i), method, parameter);
  }
  return UtilizationTrace(std::move(scaled));
}

double SolveScalingParameter(const std::vector<UtilizationTrace>& traces, ScalingMethod method,
                             double target_average, int* evaluations) {
  HARVEST_CHECK(target_average > 0.0 && target_average < 1.0)
      << "target average must be in (0,1), got " << target_average;

  // Scaled average is monotone in the parameter for both methods (increasing
  // in the factor for linear, decreasing in the power for root). Bracket
  // generously.
  double lo;
  double hi;
  bool increasing;
  if (method == ScalingMethod::kLinear) {
    lo = 0.0;
    hi = 200.0;
    increasing = true;
  } else {
    lo = 0.01;  // u^0.01 -> ~1 (max utilization)
    hi = 50.0;  // u^50 -> ~0
    increasing = false;
  }

  // Probes interpolate a residual that is close to linear in the parameter:
  // log(average) under root scaling (exactly linear for a single sample,
  // since log(u^p) = p log(u)) and the average itself under linear scaling
  // (linear until samples saturate). Both aim half a gap below the target,
  // between the averages the predicate puts on either side, so a residual is
  // never zero and its sign always agrees with the predicate. An end's
  // residual is NaN until a probe lands there.
  const double half_gap = 0.5 * (target_average - std::nextafter(target_average, 0.0));
  auto residual = [&](double average) {
    const double excess = (average - target_average) + half_gap;
    return method == ScalingMethod::kRoot ? std::log1p(excess / target_average) : excess;
  };
  double f_lo = std::numeric_limits<double>::quiet_NaN();
  double f_hi = f_lo;
  int last_replaced = 0;  // +1: the previous probe replaced lo; -1: hi
  double halving_width = hi - lo;
  int probes_since_halving = 0;

  // The result must be what 80 rounds of plain bisection on the predicate
  // below return, so lo/hi move only to probed points by its rule. The
  // predicate has a single crossing (std::pow is monotone in the power, and
  // a fixed-order floating-point sum is monotone in its terms), so any such
  // search that ends on two adjacent doubles ends on the same pair and
  // returns the same midpoint. A probe is interpolated only while the passes
  // left exceed what bisection needs to reach adjacency. Until the first
  // interpolated probe the search is that bisection step for step, so where
  // 80 halvings cannot reach adjacency it returns the same unfinished
  // midpoint.
  int used = 0;
  while (used < kMaxEvaluations) {
    const double mid = 0.5 * (lo + hi);
    if (mid == lo || mid == hi) {
      break;  // adjacent doubles
    }
    double probe = mid;
    if (probes_since_halving < 3 &&
        kMaxEvaluations - used > BisectionStepsToAdjacency(lo, hi)) {
      // Regula falsi, kept strictly inside the bracket so that a crossing
      // within rounding of an end still closes in one probe. A residual that
      // is not finite (an end not probed yet) gives no interpolant.
      if (std::isfinite(f_lo) && std::isfinite(f_hi)) {
        const double falsi = lo + (hi - lo) * (f_lo / (f_lo - f_hi));
        probe = std::clamp(falsi, std::nextafter(lo, hi), std::nextafter(hi, lo));
      }
    }
    const double avg = ScaledAverage(traces, method, probe);
    ++used;
    const double f = residual(avg);
    bool too_low = avg < target_average;
    if (too_low == increasing) {
      if (last_replaced == 1) {
        f_hi *= AndersonBjorckWeight(f, f_lo);
      }
      lo = probe;
      f_lo = f;
      last_replaced = 1;
    } else {
      if (last_replaced == -1) {
        f_lo *= AndersonBjorckWeight(f, f_hi);
      }
      hi = probe;
      f_hi = f;
      last_replaced = -1;
    }
    if (hi - lo <= 0.5 * halving_width) {
      halving_width = hi - lo;
      probes_since_halving = 0;
    } else {
      ++probes_since_halving;
    }
  }
  if (evaluations != nullptr) {
    *evaluations = used;
  }
  return 0.5 * (lo + hi);
}

std::vector<UtilizationTrace> ScaleToAverage(const std::vector<UtilizationTrace>& traces,
                                             ScalingMethod method, double target_average) {
  double parameter = SolveScalingParameter(traces, method, target_average);
  std::vector<UtilizationTrace> scaled;
  scaled.reserve(traces.size());
  for (const auto& trace : traces) {
    scaled.push_back(ScaleTrace(trace, method, parameter));
  }
  return scaled;
}

}  // namespace harvest
