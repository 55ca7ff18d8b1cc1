#include "core/meter_curve.hpp"

#include <gtest/gtest.h>

#include "core/reference_meter_curve.hpp"

namespace amoeba::core {
namespace {

using testing::latency_at;

MeterCurve simple_curve() {
  return MeterCurve({{0.1, 0.05}, {0.5, 0.10}, {0.9, 0.30}});
}

TEST(MeterCurve, LatencyInterpolatesLinearly) {
  const auto c = simple_curve();
  EXPECT_DOUBLE_EQ(latency_at(c, 0.1), 0.05);
  EXPECT_DOUBLE_EQ(latency_at(c, 0.3), 0.075);
  EXPECT_DOUBLE_EQ(latency_at(c, 0.7), 0.20);
}

TEST(MeterCurve, LatencyClampsOutsideRange) {
  const auto c = simple_curve();
  EXPECT_DOUBLE_EQ(latency_at(c, 0.0), 0.05);
  EXPECT_DOUBLE_EQ(latency_at(c, 2.0), 0.30);
}

TEST(MeterCurve, PressureInvertsLatency) {
  const auto c = simple_curve();
  EXPECT_DOUBLE_EQ(c.pressure_for(0.05), 0.1);
  EXPECT_DOUBLE_EQ(c.pressure_for(0.075), 0.3);
  EXPECT_DOUBLE_EQ(c.pressure_for(0.30), 0.9);
}

TEST(MeterCurve, RoundTripThroughInterior) {
  const auto c = simple_curve();
  for (double p : {0.15, 0.33, 0.5, 0.77}) {
    EXPECT_NEAR(c.pressure_for(latency_at(c, p)), p, 1e-12);
  }
}

TEST(MeterCurve, PressureClampsOutsideRange) {
  const auto c = simple_curve();
  EXPECT_DOUBLE_EQ(c.pressure_for(0.01), 0.1);
  EXPECT_DOUBLE_EQ(c.pressure_for(5.0), 0.9);
}

TEST(MeterCurve, IsotonicRepairOfNoisyLatency) {
  // A dip from simulation noise must not break invertibility.
  const MeterCurve c({{0.1, 0.10}, {0.3, 0.09}, {0.5, 0.20}});
  EXPECT_DOUBLE_EQ(latency_at(c, 0.3), 0.10);  // clamped up
  // Flat segment inverts to its lowest (conservative) pressure.
  EXPECT_DOUBLE_EQ(c.pressure_for(0.10), 0.1);
}

TEST(MeterCurve, RejectsDegenerateInput) {
  EXPECT_THROW(MeterCurve({{0.1, 0.05}}), ContractError);
  EXPECT_THROW(MeterCurve({{0.5, 0.05}, {0.5, 0.10}}), ContractError);
  EXPECT_THROW(MeterCurve({{0.5, 0.05}, {0.4, 0.10}}), ContractError);
}

TEST(MeterCurve, Accessors) {
  const auto c = simple_curve();
  EXPECT_DOUBLE_EQ(c.base_latency(), 0.05);
  EXPECT_DOUBLE_EQ(c.max_pressure(), 0.9);
  EXPECT_EQ(c.points().size(), 3u);
}

}  // namespace
}  // namespace amoeba::core
