// Sliding-window arrival-rate estimation.
//
// The deployment controller needs the current load V_u (queries/second) of
// each microservice. `RateEstimator` counts arrivals in a sliding window.
#pragma once

#include <deque>

#include "common/assert.hpp"

namespace amoeba::stats {

class RateEstimator {
 public:
  explicit RateEstimator(double window_seconds);

  /// Record an arrival at time `t` (non-decreasing).
  void record(double t);

  /// Arrivals per second over the trailing window ending at `now`.
  ///
  /// Warm-up: before one full window has elapsed since the first recorded
  /// arrival, the divisor is the elapsed time `now - first_observation`
  /// rather than the window length — otherwise a steady λ reads as
  /// λ·elapsed/window at scenario start, feeding the deployment controller
  /// a near-zero load for the whole first window (Eq. 1–5 discriminant
  /// skew). When `now == first_observation` the single sample spans zero
  /// elapsed time; the full window is used as the (conservative) divisor.
  [[nodiscard]] double rate(double now) const;

  [[nodiscard]] double window() const noexcept { return window_; }

 private:
  void evict(double now) const;
  double window_;
  double first_observation_ = 0.0;
  bool has_observation_ = false;
  mutable std::deque<double> arrivals_;
};

}  // namespace amoeba::stats
