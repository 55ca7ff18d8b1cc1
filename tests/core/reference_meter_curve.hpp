// The forward meter curve the inversion tests round-trip through.
//
// The monitor only inverts a MeterCurve (latency -> pressure, paper §IV-B
// step 2). The tests check pressure_for against this forward lookup over
// the curve's public points().
#pragma once

#include <algorithm>
#include <iterator>

#include "core/meter_curve.hpp"

namespace amoeba::core::testing {

/// Expected meter latency at `pressure`: linear interpolation, clamped to
/// the profiled range.
[[nodiscard]] inline double latency_at(const MeterCurve& curve,
                                       double pressure) {
  const auto& points = curve.points();
  if (pressure <= points.front().pressure) return points.front().latency;
  if (pressure >= points.back().pressure) return points.back().latency;
  const auto it = std::lower_bound(
      points.begin(), points.end(), pressure,
      [](const CurvePoint& p, double x) { return p.pressure < x; });
  const CurvePoint& hi = *it;
  const CurvePoint& lo = *std::prev(it);
  const double f = (pressure - lo.pressure) / (hi.pressure - lo.pressure);
  return lo.latency + f * (hi.latency - lo.latency);
}

}  // namespace amoeba::core::testing
