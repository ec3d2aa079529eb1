#include "src/trace/scaling.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "src/util/logging.h"

namespace harvest {

namespace {

// Probes a solve may make: the passes that the 80 rounds of plain bisection
// whose result it reproduces always spend.
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

double ScaledAverage(std::span<const UtilizationTrace* const> traces, ScalingMethod method,
                     double parameter) {
  double sum = 0.0;
  size_t count = 0;
  for (const UtilizationTrace* trace : traces) {
    for (double v : trace->samples()) {
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

UtilizationTrace ScaleTrace(const UtilizationTrace& trace, ScalingMethod method,
                            double parameter) {
  std::vector<double> scaled(trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    scaled[i] = ApplyScale(trace.AtSlot(i), method, parameter);
  }
  return UtilizationTrace(std::move(scaled));
}

ScaledSumBounds::ScaledSumBounds(std::span<const UtilizationTrace* const> traces)
    : counts_(kBins, 0) {
  for (const UtilizationTrace* trace : traces) {
    for (double u : trace->samples()) {
      ++samples_;
      if (u == 0.0) {
        continue;  // scales to 0 under both methods, at every parameter
      }
      if (!(u > 0.0 && u <= 1.0)) {
        counts_.clear();  // NaN (or outside [0, 1]): no bound holds
        return;
      }
      // u * kBins is exact, so bin b holds exactly the u in [b, b + 1) / kBins,
      // with 1 in the last bin.
      ++counts_[std::min(static_cast<int>(u * kBins), kBins - 1)];
    }
  }
  // A settled probe scales up to two edges per nonempty bin, where a pass
  // scales each sample once: on a list shorter than that the bins cost more
  // than the passes they skip.
  const int64_t nonempty = kBins - std::count(counts_.begin(), counts_.end(), 0);
  if (samples_ < 2 * nonempty) {
    counts_.clear();
  }
}

std::optional<double> ScaledSumBounds::SettledAverage(ScalingMethod method, double parameter,
                                                      double target_average) const {
  if (counts_.empty() || samples_ == 0) {
    return std::nullopt;
  }
  // The widening below assumes plain IEEE double arithmetic, each operation
  // rounded once to nearest.
  static_assert(FLT_EVAL_METHOD == 0 && std::numeric_limits<double>::is_iec559);
  // Scaling is monotone in the sample for both methods, so each sample of bin
  // b scales to between the scaled edges b / kBins and (b + 1) / kBins, up to
  // pow's own error. An edge shared by two bins is scaled once.
  double low_sum = 0.0;
  double high_sum = 0.0;
  int cached_edge = -1;
  double cached_value = 0.0;
  auto scaled_edge = [&](int edge) {
    if (edge != cached_edge) {
      cached_edge = edge;
      cached_value = ApplyScale(static_cast<double>(edge) / kBins, method, parameter);
    }
    return cached_value;
  };
  for (int b = 0; b < kBins; ++b) {
    if (counts_[b] != 0) {
      const double count = static_cast<double>(counts_[b]);
      low_sum += count * scaled_edge(b);
      high_sum += count * scaled_edge(b + 1);
    }
  }
  // Widen both sums by what can separate them from the pass's sum:
  // - pow's error on a sample's term and on its bin's edges: a few ulps
  //   relative under any usable libm, and 2^-30 is millions of ulps. Linear
  //   scaling rounds one product, monotonically, and adds no error.
  // - rounding: the pass makes N - 1 sequential additions, and a bound sum
  //   kBins products and kBins - 1 additions, each off by at most 2^-53
  //   relative; (N + kBins) * 2^-51 is four times their sum. Every term is
  //   nonnegative, so the sums are off by no more, relative to themselves.
  // - subnormal results, where pow's error is absolute (2^-1074 on a sample
  //   and on its edge) and a product rounds by up to 2^-1075:
  //   (N + kBins) * 2^-1072 is twice that.
  // A bin is 1/4096 wide, 5e-4 of a sample at 0.5, so the slack costs
  // nothing.
  const double n = static_cast<double>(samples_);
  const double terms = n + kBins;
  const double relative = 0x1p-30 + terms * 0x1p-51;
  const double absolute = terms * 0x1p-1072;
  const double low = low_sum * (1.0 - relative) - absolute;
  const double high = high_sum * (1.0 + relative) + absolute;
  // The pass's average is its sum divided by n, and rounding is monotone, so
  // it is below the target when high / n is and not below it when low / n
  // is not. The same monotonicity puts the midpoint between low / n and
  // high / n, on the decided side.
  if (high / n < target_average || low / n >= target_average) {
    return 0.5 * (low + high) / n;
  }
  return std::nullopt;
}

double SolveScalingParameter(std::span<const UtilizationTrace* const> traces,
                             ScalingMethod method, double target_average, int* evaluations,
                             int* passes) {
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
  // returns the same midpoint. A probe is interpolated only while the probes
  // left exceed what bisection needs to reach adjacency. Until the first
  // interpolated probe the search is that bisection step for step, so where
  // 80 halvings cannot reach adjacency it returns the same unfinished
  // midpoint. A probe the bounds settle has the predicate of the pass it
  // skips, so it moves lo/hi exactly as that pass would, and it counts
  // toward the budget like one.
  const ScaledSumBounds bounds(traces);
  int used = 0;
  int full_passes = 0;
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
    const std::optional<double> settled = bounds.SettledAverage(method, probe, target_average);
    const double avg = settled ? *settled : ScaledAverage(traces, method, probe);
    ++used;
    full_passes += settled ? 0 : 1;
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
  if (passes != nullptr) {
    *passes = full_passes;
  }
  return 0.5 * (lo + hi);
}

}  // namespace harvest
