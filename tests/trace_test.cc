#include "src/trace/utilization_trace.h"

#include <gtest/gtest.h>

namespace harvest {
namespace {

TEST(UtilizationTraceTest, EmptyTraceIsZero) {
  UtilizationTrace trace;
  EXPECT_TRUE(trace.empty());
  EXPECT_DOUBLE_EQ(trace.AtTime(100.0), 0.0);
  EXPECT_DOUBLE_EQ(trace.Average(), 0.0);
  EXPECT_DOUBLE_EQ(trace.Peak(), 0.0);
}

TEST(UtilizationTraceTest, ValuesAreClampedToUnitInterval) {
  UtilizationTrace trace({-0.5, 0.5, 1.5});
  EXPECT_DOUBLE_EQ(trace.AtSlot(0), 0.0);
  EXPECT_DOUBLE_EQ(trace.AtSlot(1), 0.5);
  EXPECT_DOUBLE_EQ(trace.AtSlot(2), 1.0);
}

TEST(UtilizationTraceTest, AtTimeMapsToSlots) {
  UtilizationTrace trace({0.1, 0.2, 0.3});
  EXPECT_DOUBLE_EQ(trace.AtTime(0.0), 0.1);
  EXPECT_DOUBLE_EQ(trace.AtTime(119.9), 0.1);
  EXPECT_DOUBLE_EQ(trace.AtTime(120.0), 0.2);
  EXPECT_DOUBLE_EQ(trace.AtTime(250.0), 0.3);
}

TEST(UtilizationTraceTest, WrapsAroundAtEnd) {
  UtilizationTrace trace({0.1, 0.2});
  EXPECT_DOUBLE_EQ(trace.AtTime(2 * kSlotSeconds), 0.1);  // wrapped
  EXPECT_DOUBLE_EQ(trace.AtSlot(5), 0.2);
  EXPECT_DOUBLE_EQ(trace.duration_seconds(), 240.0);
}

TEST(UtilizationTraceTest, AverageAndPeak) {
  UtilizationTrace trace({0.1, 0.2, 0.3, 0.4});
  EXPECT_NEAR(trace.Average(), 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(trace.Peak(), 0.4);
}

TEST(UtilizationTraceTest, WindowAverageWraps) {
  UtilizationTrace trace({0.0, 1.0});
  EXPECT_NEAR(trace.WindowAverage(1, 2), 0.5, 1e-12);  // slots 1,0
  EXPECT_NEAR(trace.WindowAverage(0, 4), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(trace.WindowAverage(0, 0), 0.0);
}

TEST(UtilizationTraceTest, ConstantsMatchTwoMinuteTelemetry) {
  EXPECT_DOUBLE_EQ(kSlotSeconds, 120.0);
  EXPECT_EQ(kSlotsPerDay, 720u);
  EXPECT_EQ(kSlotsPerMonth, 21600u);
}

}  // namespace
}  // namespace harvest
