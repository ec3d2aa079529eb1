#include "src/trace/scaling.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/trace/generators.h"

namespace harvest {
namespace {

std::vector<UtilizationTrace> MakeTraces(uint64_t seed) {
  Rng rng(seed);
  std::vector<UtilizationTrace> traces;
  PeriodicTraceParams periodic;
  traces.push_back(GeneratePeriodicTrace(periodic, 2000, rng));
  ConstantTraceParams constant;
  traces.push_back(GenerateConstantTrace(constant, 2000, rng));
  UnpredictableTraceParams wild;
  traces.push_back(GenerateUnpredictableTrace(wild, 2000, rng));
  return traces;
}

// One pointer per trace, in order: the list SolveScalingParameter reads.
std::vector<const UtilizationTrace*> Pointers(const std::vector<UtilizationTrace>& traces) {
  std::vector<const UtilizationTrace*> pointers;
  for (const UtilizationTrace& trace : traces) {
    pointers.push_back(&trace);
  }
  return pointers;
}

// The list twice over: at least twice as many samples as nonempty bins, so
// ScaledSumBounds keeps its bins on whatever the samples.
std::vector<const UtilizationTrace*> Twice(const std::vector<UtilizationTrace>& traces) {
  std::vector<const UtilizationTrace*> pointers;
  for (int copy = 0; copy < 2; ++copy) {
    for (const UtilizationTrace& trace : traces) {
      pointers.push_back(&trace);
    }
  }
  return pointers;
}

double PopulationAverage(const std::vector<UtilizationTrace>& traces) {
  double sum = 0.0;
  size_t count = 0;
  for (const auto& t : traces) {
    for (double v : t.samples()) {
      sum += v;
      ++count;
    }
  }
  return sum / static_cast<double>(count);
}

TEST(ScalingTest, LinearScaleSaturatesAtOne) {
  UtilizationTrace trace({0.2, 0.5, 0.9});
  UtilizationTrace scaled = ScaleTrace(trace, ScalingMethod::kLinear, 2.0);
  EXPECT_NEAR(scaled.AtSlot(0), 0.4, 1e-12);
  EXPECT_NEAR(scaled.AtSlot(1), 1.0, 1e-12);
  EXPECT_NEAR(scaled.AtSlot(2), 1.0, 1e-12);
}

TEST(ScalingTest, RootScaleCompressesHighValuesLess) {
  UtilizationTrace trace({0.1, 0.9});
  UtilizationTrace up = ScaleTrace(trace, ScalingMethod::kRoot, 0.5);  // sqrt raises
  // sqrt: 0.1 -> 0.316 (+0.216), 0.9 -> 0.949 (+0.049): low values move more.
  EXPECT_GT(up.AtSlot(0) - trace.AtSlot(0), up.AtSlot(1) - trace.AtSlot(1));
}

TEST(ScalingTest, RootPowerAboveOneLowersUtilization) {
  UtilizationTrace trace({0.5});
  UtilizationTrace down = ScaleTrace(trace, ScalingMethod::kRoot, 2.0);
  EXPECT_NEAR(down.AtSlot(0), 0.25, 1e-12);
}

TEST(ScalingTest, ZeroStaysZeroUnderRoot) {
  UtilizationTrace trace({0.0, 0.3});
  UtilizationTrace scaled = ScaleTrace(trace, ScalingMethod::kRoot, 0.5);
  EXPECT_DOUBLE_EQ(scaled.AtSlot(0), 0.0);
}

TEST(ScalingTest, LinearScalingAmplifiesVariationMoreThanRoot) {
  // The crux of Fig 13: at the same target average, linear scaling yields
  // larger temporal variation than root scaling.
  const std::vector<UtilizationTrace> traces = MakeTraces(3);
  auto variance = [&](ScalingMethod method) {
    const double parameter = SolveScalingParameter(Pointers(traces), method, 0.55);
    double total = 0.0;
    for (const auto& trace : traces) {
      const UtilizationTrace t = ScaleTrace(trace, method, parameter);
      double mean = t.Average();
      double acc = 0.0;
      for (double v : t.samples()) {
        acc += (v - mean) * (v - mean);
      }
      total += acc / static_cast<double>(t.size());
    }
    return total;
  };
  EXPECT_GT(variance(ScalingMethod::kLinear), variance(ScalingMethod::kRoot));
}

// Property: the solved parameter hits the target average for both methods
// across the utilization spectrum.
class ScaleTargetTest
    : public ::testing::TestWithParam<std::tuple<ScalingMethod, double>> {};

TEST_P(ScaleTargetTest, HitsTargetAverage) {
  auto [method, target] = GetParam();
  const std::vector<UtilizationTrace> traces = MakeTraces(11);
  // The interpolating search needs far fewer passes over the samples than
  // the 80 that plain bisection spends.
  int evaluations = 0;
  const double parameter = SolveScalingParameter(Pointers(traces), method, target, &evaluations);
  EXPECT_LE(evaluations, 30);
  std::vector<UtilizationTrace> scaled;
  for (const auto& trace : traces) {
    scaled.push_back(ScaleTrace(trace, method, parameter));
  }
  EXPECT_NEAR(PopulationAverage(scaled), target, 0.01);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScaleTargetTest,
    ::testing::Combine(::testing::Values(ScalingMethod::kLinear, ScalingMethod::kRoot),
                       ::testing::Values(0.15, 0.30, 0.45, 0.60, 0.75)));

TEST(ScalingTest, SolveIsMonotoneInTarget) {
  const std::vector<UtilizationTrace> owned = MakeTraces(13);
  const std::vector<const UtilizationTrace*> traces = Pointers(owned);
  double f_low = SolveScalingParameter(traces, ScalingMethod::kLinear, 0.2);
  double f_high = SolveScalingParameter(traces, ScalingMethod::kLinear, 0.6);
  EXPECT_LT(f_low, f_high);
  double p_low = SolveScalingParameter(traces, ScalingMethod::kRoot, 0.2);
  double p_high = SolveScalingParameter(traces, ScalingMethod::kRoot, 0.6);
  EXPECT_GT(p_low, p_high);  // larger power lowers utilization
}

// --- Oracle: the interpolating solve against plain bisection ---------------

// The pass a probe stands for: every sample of `traces` scaled and summed in
// list order, then divided by the sample count.
double PassAverage(std::span<const UtilizationTrace* const> traces, ScalingMethod method,
                   double parameter) {
  double sum = 0.0;
  size_t count = 0;
  for (const UtilizationTrace* trace : traces) {
    for (double u : trace->samples()) {
      if (method == ScalingMethod::kLinear) {
        sum += std::min(1.0, parameter * u);
      } else {
        sum += u <= 0.0 ? 0.0 : std::pow(u, parameter);
      }
      ++count;
    }
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

// The dense reference: 80 rounds of plain bisection on SolveScalingParameter's
// predicate and start bracket, with the scaled samples summed in the same
// order.
double ReferenceSolve(const std::vector<UtilizationTrace>& traces, ScalingMethod method,
                      double target_average) {
  const std::vector<const UtilizationTrace*> pointers = Pointers(traces);
  const bool increasing = method == ScalingMethod::kLinear;
  double lo = increasing ? 0.0 : 0.01;
  double hi = increasing ? 200.0 : 50.0;
  for (int iter = 0; iter < 80; ++iter) {
    double mid = 0.5 * (lo + hi);
    bool too_low = PassAverage(pointers, method, mid) < target_average;
    if (too_low == increasing) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// 1e-9 puts the linear crossing too close to 0 for the reference's 80
// bisections to reach adjacent doubles; the search must then reproduce the
// reference's unfinished bracket, not a sharper answer.
constexpr double kOracleTargets[] = {1e-9, 1e-6, 0.001, 0.05,  0.2,
                                     0.45, 0.7,  0.95,  0.999, 0.999999};

// Solves the pointer list `traces` for every oracle target with both methods
// and expects the reference's parameter, computed over a deep copy with one
// trace per list entry, bit for bit within the 80-pass budget.
void ExpectReferenceParameters(std::span<const UtilizationTrace* const> traces,
                               const std::string& label) {
  std::vector<UtilizationTrace> copy;
  for (const UtilizationTrace* trace : traces) {
    copy.push_back(*trace);
  }
  for (ScalingMethod method : {ScalingMethod::kLinear, ScalingMethod::kRoot}) {
    for (double target : kOracleTargets) {
      int evaluations = -1;
      const double solved = SolveScalingParameter(traces, method, target, &evaluations);
      const double reference = ReferenceSolve(copy, method, target);
      EXPECT_EQ(Bits(solved), Bits(reference))
          << label << ", method " << static_cast<int>(method) << " target " << target << ": solved "
          << solved << ", reference " << reference;
      EXPECT_GE(evaluations, 1) << label;
      EXPECT_LE(evaluations, 80) << label;
    }
  }
}

void ExpectReferenceParameters(const std::vector<UtilizationTrace>& traces,
                               const std::string& label) {
  ExpectReferenceParameters(Pointers(traces), label);
}

// Random trace sets varying what the crossing depends on: trace count and
// length, skew toward low or high utilization, constant traces, and runs of
// idle (0) and saturated (1) samples.
std::vector<UtilizationTrace> RandomTraceSet(uint64_t seed) {
  Rng rng(seed);
  std::vector<UtilizationTrace> traces;
  const int64_t num_traces = rng.UniformInt(1, 5);
  for (int64_t t = 0; t < num_traces; ++t) {
    std::vector<double> samples(static_cast<size_t>(rng.UniformInt(1, 200)));
    const int64_t shape = rng.UniformInt(0, 4);
    const double constant = rng.NextDouble();
    for (double& u : samples) {
      const double draw = rng.NextDouble();
      switch (shape) {
        case 0:
          u = draw;
          break;
        case 1:
          u = std::pow(draw, 4.0);
          break;
        case 2:
          u = 1.0 - std::pow(draw, 4.0);
          break;
        case 3:
          u = constant;
          break;
        default:
          u = draw < 0.3 ? 0.0 : (draw < 0.4 ? 1.0 : rng.NextDouble());
          break;
      }
    }
    traces.emplace_back(std::move(samples));
  }
  return traces;
}

TEST(ScalingOracleTest, RandomSetsSolveToTheReferenceBitForBit) {
  for (uint64_t seed = 1; seed <= 160; ++seed) {
    ExpectReferenceParameters(RandomTraceSet(seed), "seed " + std::to_string(seed));
  }
}

// A fleet with shared traces lists one trace for many servers. Each pool of
// distinct traces is listed twice over: in runs, one trace per tenant-like
// block of consecutive servers, and interleaved, each entry drawn from the
// whole pool. Both must solve to the reference over the expanded copy.
TEST(ScalingOracleTest, SharedTraceListsSolveToTheReferenceBitForBit) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const std::vector<UtilizationTrace> pool = RandomTraceSet(seed);
    Rng rng(seed + 1000);
    std::vector<const UtilizationTrace*> runs;
    for (const UtilizationTrace& trace : pool) {
      runs.insert(runs.end(), static_cast<size_t>(rng.UniformInt(1, 4)), &trace);
    }
    std::vector<const UtilizationTrace*> interleaved;
    const int64_t entries = rng.UniformInt(2, 12);
    for (int64_t i = 0; i < entries; ++i) {
      interleaved.push_back(&pool[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))]);
    }
    ExpectReferenceParameters(runs, "runs, seed " + std::to_string(seed));
    ExpectReferenceParameters(interleaved, "interleaved, seed " + std::to_string(seed));
  }
  // A list's order is its summation order: the same six addends, summed in
  // two orders, each match the reference over their own expansion.
  const UtilizationTrace a({0.1, 0.7, 1e-3});
  const UtilizationTrace b({0.9, 0.0, 0.33});
  const UtilizationTrace* alternating[] = {&a, &b, &a, &b, &a, &b};
  const UtilizationTrace* blocked[] = {&a, &a, &a, &b, &b, &b};
  ExpectReferenceParameters(alternating, "a b a b a b");
  ExpectReferenceParameters(blocked, "a a a b b b");
}

TEST(ScalingOracleTest, StalledInterpolationFallsBackToMidpoints) {
  // Under linear scaling the average is flat at 1 once every sample
  // saturates. With the crossing just below that kink, regula falsi creeps
  // along the plateau from one side; the midpoint step taken after three
  // probes fail to halve the bracket is what closes it well inside the budget.
  const std::vector<UtilizationTrace> traces = {
      UtilizationTrace({0.0793, 0.2008, 0.45, 0.662, 0.78, 0.9, 1.0})};
  int evaluations = 0;
  SolveScalingParameter(Pointers(traces), ScalingMethod::kLinear, 0.999999, &evaluations);
  EXPECT_LE(evaluations, 60);
  ExpectReferenceParameters(traces, "plateau");
}

TEST(ScalingOracleTest, DegenerateSetsSolveToTheReferenceBitForBit) {
  ExpectReferenceParameters({UtilizationTrace(std::vector<double>(50, 0.0))}, "all zero");
  ExpectReferenceParameters({UtilizationTrace(std::vector<double>(50, 1.0))}, "all one");
  ExpectReferenceParameters(std::vector<UtilizationTrace>(), "no traces");
  ExpectReferenceParameters({UtilizationTrace()}, "one empty trace");
  ExpectReferenceParameters({UtilizationTrace({0.37})}, "single sample");
  ExpectReferenceParameters({UtilizationTrace({0.0, 1.0})}, "{0, 1}");
  ExpectReferenceParameters({UtilizationTrace({1e-300, 1.0, 0.999999})},
                            "{1e-300, 1, 0.999999}");
}

// The samples the bins could misplace: exact bin edges and the doubles next
// to them, 1 and the double just below it, subnormals, a NaN, and one trace
// listed 10^4 times. Lists of a few samples in as many bins are listed twice,
// or the bins would stay off.
TEST(ScalingOracleTest, BinEdgeSetsSolveToTheReferenceBitForBit) {
  constexpr double kBins = ScaledSumBounds::kBins;
  std::vector<double> edges;
  for (int b : {1, 2, 3, 7, 409, 1000, 2048, 3001, 4000, 4094, 4095, 4096}) {
    const double edge = b / kBins;
    edges.insert(edges.end(), {edge, std::nextafter(edge, 0.0), std::nextafter(edge, 2.0)});
  }
  ExpectReferenceParameters({UtilizationTrace(edges)}, "edges and neighbours");
  Rng rng(17);
  for (int set = 0; set < 8; ++set) {
    std::vector<double> samples(static_cast<size_t>(rng.UniformInt(1, 300)));
    for (double& u : samples) {
      const double edge = static_cast<double>(rng.UniformInt(1, 4096)) / kBins;
      const int64_t side = rng.UniformInt(-1, 1);
      u = side == 0 ? edge : std::nextafter(edge, side < 0 ? 0.0 : 2.0);
    }
    ExpectReferenceParameters(Twice({UtilizationTrace(samples)}),
                              "random edges " + std::to_string(set));
  }
  ExpectReferenceParameters({UtilizationTrace(std::vector<double>(300, 0.5))}, "300 x 0.5");
  const double below_one = 1.0 - 0x1p-53;
  ExpectReferenceParameters({UtilizationTrace(std::vector<double>(50, below_one))},
                            "all 1 - 2^-53");
  ExpectReferenceParameters({UtilizationTrace({1.0, below_one, 1.0, below_one, 0.0})},
                            "{1, 1 - 2^-53, 0}");
  ExpectReferenceParameters({UtilizationTrace({5e-324, 1e-310, 5e-324, 0.0})}, "subnormals");
  ExpectReferenceParameters(Twice({UtilizationTrace({5e-324, 1e-310, 0.25, 1.0})}),
                            "subnormals and normals");
  ExpectReferenceParameters(
      {UtilizationTrace({0.3, std::numeric_limits<double>::quiet_NaN(), 0.7})}, "one NaN");
  const UtilizationTrace repeated({0.25, 1.0 / kBins, std::nextafter(0.5, 1.0)});
  const std::vector<const UtilizationTrace*> large(10000, &repeated);
  ExpectReferenceParameters(large, "one trace listed 10^4 times");
}

// The bounds settle most far probes. On MakeTraces seeds 1-3, at reachable
// targets, a solve makes 13 to 26 probes and 5 to 12 full passes; the probes
// next to the crossing always take one. A root target beyond the bracket
// puts the crossing on an end, and every probe there is settled.
TEST(ScalingTest, BoundsSettleFarProbes) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const std::vector<UtilizationTrace> owned = MakeTraces(seed);
    const std::vector<const UtilizationTrace*> traces = Pointers(owned);
    for (ScalingMethod method : {ScalingMethod::kLinear, ScalingMethod::kRoot}) {
      for (double target : {0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95}) {
        int probes = 0;
        int passes = 0;
        SolveScalingParameter(traces, method, target, &probes, &passes);
        EXPECT_GE(passes, 1) << "seed " << seed << ", method " << static_cast<int>(method) << " "
                             << target;
        EXPECT_LE(passes, 12) << "seed " << seed << ", method " << static_cast<int>(method) << " "
                              << target << ": " << probes << " probes";
      }
    }
    for (double target : {1e-9, 0.999999}) {
      int probes = 0;
      int passes = -1;
      SolveScalingParameter(traces, ScalingMethod::kRoot, target, &probes, &passes);
      EXPECT_EQ(passes, 0) << "seed " << seed << ", root " << target;
      EXPECT_GE(probes, 53) << "seed " << seed << ", root " << target;
    }
  }
  // A NaN sample turns the bins off: every probe takes a pass.
  const std::vector<UtilizationTrace> nan = {
      UtilizationTrace({0.3, std::numeric_limits<double>::quiet_NaN(), 0.7})};
  int probes = 0;
  int passes = 0;
  SolveScalingParameter(Pointers(nan), ScalingMethod::kRoot, 0.5, &probes, &passes);
  EXPECT_EQ(passes, probes);
  // So does a list with fewer samples than twice its nonempty bins; the same
  // samples listed twice keep them on.
  const std::vector<UtilizationTrace> pair = {UtilizationTrace({0.3, 0.7})};
  SolveScalingParameter(Pointers(pair), ScalingMethod::kRoot, 0.999999, &probes, &passes);
  EXPECT_EQ(passes, probes);
  SolveScalingParameter(Twice(pair), ScalingMethod::kRoot, 0.999999, &probes, &passes);
  EXPECT_EQ(passes, 0);
}

// --- ScaledSumBounds: a settled probe has the pass's predicate -------------

// Checks every probe the bounds of `traces` settle against the pass it
// stands for: probes at, next to and within 1e-12 to 0.1 (relative) of the
// crossing of several targets, and targets at, next to and near the pass's
// average at random probes. Returns the number of probes settled.
int ExpectSettledProbesAgree(std::span<const UtilizationTrace* const> traces, Rng& rng,
                             const std::string& label) {
  const ScaledSumBounds bounds(traces);
  int settled_probes = 0;
  auto check = [&](ScalingMethod method, double parameter, double target) {
    if (!(target > 0.0 && target < 1.0)) {
      return;
    }
    const std::optional<double> settled = bounds.SettledAverage(method, parameter, target);
    if (!settled) {
      return;
    }
    ++settled_probes;
    const double average = PassAverage(traces, method, parameter);
    EXPECT_EQ(*settled < target, average < target)
        << label << ", method " << static_cast<int>(method) << " parameter " << parameter
        << " target " << target << ": settled " << *settled << ", pass " << average;
  };
  for (ScalingMethod method : {ScalingMethod::kLinear, ScalingMethod::kRoot}) {
    const double lowest = method == ScalingMethod::kLinear ? 0.0 : 0.01;
    const double highest = method == ScalingMethod::kLinear ? 200.0 : 50.0;
    for (double target : {0.05, 0.3, 0.6, 0.9, rng.Uniform(0.001, 0.999)}) {
      const double crossing = SolveScalingParameter(traces, method, target);
      for (double offset : {0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -1e-3, 0.1, -0.1}) {
        check(method, crossing * (1.0 + offset), target);
      }
      check(method, std::nextafter(crossing, lowest), target);
      check(method, std::nextafter(crossing, highest), target);
    }
    for (int k = 0; k < 8; ++k) {
      // Log-uniform, so that small factors and powers are probed too.
      const double parameter = std::exp(rng.Uniform(std::log(1e-3), std::log(highest)));
      const double average = PassAverage(traces, method, parameter);
      for (double target : {average, std::nextafter(average, 0.0), std::nextafter(average, 1.0),
                            average * (1.0 + 1e-12), average * (1.0 - 1e-12),
                            average * (1.0 + 1e-3), average * (1.0 - 1e-3), rng.NextDouble()}) {
        check(method, parameter, target);
      }
    }
  }
  return settled_probes;
}

// The random and bin-edge sets are listed twice, so every list here keeps
// its bins on.
TEST(ScaledSumBoundsTest, SettledProbesAgreeWithThePass) {
  Rng rng(2026);
  int settled = 0;
  for (uint64_t seed = 1; seed <= 80; ++seed) {
    const std::vector<UtilizationTrace> traces = RandomTraceSet(seed);
    settled += ExpectSettledProbesAgree(Twice(traces), rng, "seed " + std::to_string(seed));
  }
  constexpr double kBins = ScaledSumBounds::kBins;
  for (int set = 0; set < 20; ++set) {
    // Samples on bin edges scale to exactly their bound's terms, so only the
    // slack separates the bound from the pass.
    std::vector<double> samples(static_cast<size_t>(rng.UniformInt(1, 2000)));
    const int64_t edges = rng.UniformInt(1, 8);
    for (double& u : samples) {
      u = static_cast<double>(rng.UniformInt(1, edges) * rng.UniformInt(1, 4096 / edges)) / kBins;
    }
    const std::vector<UtilizationTrace> traces = {UtilizationTrace(samples)};
    settled += ExpectSettledProbesAgree(Twice(traces), rng, "edges " + std::to_string(set));
  }
  const UtilizationTrace edge({0.5, 1.0 / kBins, 1.0});
  settled += ExpectSettledProbesAgree(std::vector<const UtilizationTrace*>(10000, &edge), rng,
                                      "one edge trace listed 10^4 times");
  const UtilizationTrace subnormal({5e-324, 1e-310, 0.0, 1e-300});
  settled += ExpectSettledProbesAgree(std::vector<const UtilizationTrace*>(3, &subnormal), rng,
                                      "subnormals");
  EXPECT_GT(settled, 5000);  // the bounds do settle probes
  // A NaN sample settles nothing.
  const std::vector<UtilizationTrace> nan = {
      UtilizationTrace({0.3, std::numeric_limits<double>::quiet_NaN(), 0.7})};
  EXPECT_EQ(ExpectSettledProbesAgree(Pointers(nan), rng, "NaN"), 0);
}

}  // namespace
}  // namespace harvest
