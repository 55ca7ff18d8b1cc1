#include "core/meter_curve.hpp"

#include <algorithm>
#include <utility>

namespace amoeba::core {

MeterCurve::MeterCurve(std::vector<CurvePoint> points)
    : points_(std::move(points)) {
  AMOEBA_EXPECTS_MSG(points_.size() >= 2, "curve needs at least two points");
  for (std::size_t i = 1; i < points_.size(); ++i) {
    AMOEBA_EXPECTS_MSG(points_[i].pressure > points_[i - 1].pressure,
                       "pressures must be strictly increasing");
  }
  for (const CurvePoint& p : points_) {
    AMOEBA_EXPECTS_VALS(p.latency >= 0.0, p.pressure, p.latency);
  }
  // Isotonic repair: contention cannot reduce latency; clamp simulation
  // noise so the inverse lookup stays well-defined.
  for (std::size_t i = 1; i < points_.size(); ++i) {
    points_[i].latency = std::max(points_[i].latency, points_[i - 1].latency);
    AMOEBA_INVARIANT_MSG(points_[i].latency >= points_[i - 1].latency,
                         "isotonic repair must leave latency non-decreasing");
  }
}

double MeterCurve::pressure_for(double latency) const {
  if (latency <= points_.front().latency) return points_.front().pressure;
  if (latency >= points_.back().latency) return points_.back().pressure;
  // First segment whose upper latency reaches `latency`.
  for (std::size_t i = 1; i < points_.size(); ++i) {
    const CurvePoint& lo = points_[i - 1];
    const CurvePoint& hi = points_[i];
    if (latency <= hi.latency) {
      if (hi.latency <= lo.latency) return lo.pressure;  // flat segment
      const double f = (latency - lo.latency) / (hi.latency - lo.latency);
      const double p = lo.pressure + f * (hi.pressure - lo.pressure);
      // The inverted curve must land inside the calibrated pressure range;
      // anything outside means the isotonic repair or bracketing broke.
      AMOEBA_ENSURES_VALS(p >= points_.front().pressure &&
                              p <= points_.back().pressure,
                          p, latency);
      return p;
    }
  }
  return points_.back().pressure;
}

}  // namespace amoeba::core
