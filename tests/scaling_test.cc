#include "src/trace/scaling.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

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

TEST(ScalingTest, MethodNames) {
  EXPECT_STREQ(ScalingMethodName(ScalingMethod::kLinear), "linear");
  EXPECT_STREQ(ScalingMethodName(ScalingMethod::kRoot), "root");
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
  std::vector<UtilizationTrace> traces = MakeTraces(3);
  auto linear = ScaleToAverage(traces, ScalingMethod::kLinear, 0.55);
  auto root = ScaleToAverage(traces, ScalingMethod::kRoot, 0.55);
  auto variance = [](const std::vector<UtilizationTrace>& ts) {
    double total = 0.0;
    for (const auto& t : ts) {
      double mean = t.Average();
      double acc = 0.0;
      for (double v : t.samples()) {
        acc += (v - mean) * (v - mean);
      }
      total += acc / static_cast<double>(t.size());
    }
    return total;
  };
  EXPECT_GT(variance(linear), variance(root));
}

// Property: the solved parameter hits the target average for both methods
// across the utilization spectrum.
class ScaleTargetTest
    : public ::testing::TestWithParam<std::tuple<ScalingMethod, double>> {};

TEST_P(ScaleTargetTest, HitsTargetAverage) {
  auto [method, target] = GetParam();
  std::vector<UtilizationTrace> traces = MakeTraces(11);
  auto scaled = ScaleToAverage(traces, method, target);
  EXPECT_NEAR(PopulationAverage(scaled), target, 0.01);
  // The interpolating search needs far fewer passes over the samples than
  // the 80 that plain bisection spends.
  int evaluations = 0;
  SolveScalingParameter(traces, method, target, &evaluations);
  EXPECT_LE(evaluations, 30);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScaleTargetTest,
    ::testing::Combine(::testing::Values(ScalingMethod::kLinear, ScalingMethod::kRoot),
                       ::testing::Values(0.15, 0.30, 0.45, 0.60, 0.75)));

TEST(ScalingTest, SolveIsMonotoneInTarget) {
  std::vector<UtilizationTrace> traces = MakeTraces(13);
  double f_low = SolveScalingParameter(traces, ScalingMethod::kLinear, 0.2);
  double f_high = SolveScalingParameter(traces, ScalingMethod::kLinear, 0.6);
  EXPECT_LT(f_low, f_high);
  double p_low = SolveScalingParameter(traces, ScalingMethod::kRoot, 0.2);
  double p_high = SolveScalingParameter(traces, ScalingMethod::kRoot, 0.6);
  EXPECT_GT(p_low, p_high);  // larger power lowers utilization
}

// --- Oracle: the interpolating solve against plain bisection ---------------

// The dense reference: 80 rounds of plain bisection on SolveScalingParameter's
// predicate and start bracket, with the scaled samples summed in the same
// order.
double ReferenceSolve(const std::vector<UtilizationTrace>& traces, ScalingMethod method,
                      double target_average) {
  auto scaled_average = [&](double parameter) {
    double sum = 0.0;
    size_t count = 0;
    for (const auto& trace : traces) {
      for (double u : trace.samples()) {
        if (method == ScalingMethod::kLinear) {
          sum += std::min(1.0, parameter * u);
        } else {
          sum += u <= 0.0 ? 0.0 : std::pow(u, parameter);
        }
        ++count;
      }
    }
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  };
  const bool increasing = method == ScalingMethod::kLinear;
  double lo = increasing ? 0.0 : 0.01;
  double hi = increasing ? 200.0 : 50.0;
  for (int iter = 0; iter < 80; ++iter) {
    double mid = 0.5 * (lo + hi);
    bool too_low = scaled_average(mid) < target_average;
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

// Solves `traces` for every oracle target with both methods and expects the
// reference's parameter bit for bit within the 80-pass budget.
void ExpectReferenceParameters(const std::vector<UtilizationTrace>& traces,
                               const std::string& label) {
  for (ScalingMethod method : {ScalingMethod::kLinear, ScalingMethod::kRoot}) {
    for (double target : kOracleTargets) {
      int evaluations = -1;
      const double solved = SolveScalingParameter(traces, method, target, &evaluations);
      const double reference = ReferenceSolve(traces, method, target);
      EXPECT_EQ(Bits(solved), Bits(reference))
          << label << ", " << ScalingMethodName(method) << " target " << target << ": solved "
          << solved << ", reference " << reference;
      EXPECT_GE(evaluations, 1) << label;
      EXPECT_LE(evaluations, 80) << label;
    }
  }
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

TEST(ScalingOracleTest, StalledInterpolationFallsBackToMidpoints) {
  // Under linear scaling the average is flat at 1 once every sample
  // saturates. With the crossing just below that kink, regula falsi creeps
  // along the plateau from one side; the midpoint step taken after three
  // probes fail to halve the bracket is what closes it well inside the budget.
  const std::vector<UtilizationTrace> traces = {
      UtilizationTrace({0.0793, 0.2008, 0.45, 0.662, 0.78, 0.9, 1.0})};
  int evaluations = 0;
  SolveScalingParameter(traces, ScalingMethod::kLinear, 0.999999, &evaluations);
  EXPECT_LE(evaluations, 60);
  ExpectReferenceParameters(traces, "plateau");
}

TEST(ScalingOracleTest, DegenerateSetsSolveToTheReferenceBitForBit) {
  ExpectReferenceParameters({UtilizationTrace(std::vector<double>(50, 0.0))}, "all zero");
  ExpectReferenceParameters({UtilizationTrace(std::vector<double>(50, 1.0))}, "all one");
  ExpectReferenceParameters({}, "no traces");
  ExpectReferenceParameters({UtilizationTrace()}, "one empty trace");
  ExpectReferenceParameters({UtilizationTrace({0.37})}, "single sample");
  ExpectReferenceParameters({UtilizationTrace({0.0, 1.0})}, "{0, 1}");
  ExpectReferenceParameters({UtilizationTrace({1e-300, 1.0, 0.999999})},
                            "{1e-300, 1, 0.999999}");
}

}  // namespace
}  // namespace harvest
