// Meter calibration curves (paper §IV-B step 1 "Profiling" + Fig. 8).
//
// During profiling each contention meter runs alone on the serverless
// platform at a sweep of loads; the resulting (pressure, latency) pairs
// form a monotone curve. At measurement time (step 2) the monitor runs the
// meter at a low probing rate, observes its latency, and inverts the curve
// to recover the pressure the resident microservices put on that resource.
#pragma once

#include <vector>

#include "common/assert.hpp"

namespace amoeba::core {

struct CurvePoint {
  double pressure;  ///< resource pressure (demand / capacity)
  double latency;   ///< observed meter latency at that pressure
};

class MeterCurve {
 public:
  /// Points must have strictly increasing pressure; latency must be
  /// non-decreasing (a meter cannot get faster under more contention —
  /// small violations from simulation noise are repaired by isotonic
  /// clamping). Requires >= 2 points.
  explicit MeterCurve(std::vector<CurvePoint> points);

  /// Inverse lookup: the pressure whose profiled latency equals
  /// `latency` (clamped to the profiled range). On flat segments returns
  /// the segment's lowest pressure (the conservative choice: the monitor
  /// never over-reports contention it cannot distinguish).
  [[nodiscard]] double pressure_for(double latency) const;

  [[nodiscard]] const std::vector<CurvePoint>& points() const noexcept {
    return points_;
  }

  /// Baseline (lowest-pressure) latency — the meter's solo latency.
  [[nodiscard]] double base_latency() const noexcept {
    return points_.front().latency;
  }
  [[nodiscard]] double max_pressure() const noexcept {
    return points_.back().pressure;
  }

 private:
  std::vector<CurvePoint> points_;
};

}  // namespace amoeba::core
