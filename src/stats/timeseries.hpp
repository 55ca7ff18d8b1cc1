// Time-stamped series with resampling, used for the paper's timeline
// figures (Fig. 12 switch timeline, Fig. 13 usage timeline).
#pragma once

#include <cstddef>
#include <vector>

#include "common/assert.hpp"

namespace amoeba::stats {

struct TimePoint {
  double t;
  double value;
};

/// Append-only series of (time, value) observations with monotonically
/// non-decreasing timestamps.
class TimeSeries {
 public:
  void add(double t, double value);

  [[nodiscard]] bool empty() const noexcept { return points_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return points_.size(); }
  [[nodiscard]] const std::vector<TimePoint>& points() const noexcept {
    return points_;
  }

  /// Step-function value at time `t` (value of the latest point with
  /// timestamp <= t). Requires a point at or before `t`.
  [[nodiscard]] double value_at(double t) const;

  /// Resample onto a uniform grid of `n` buckets over [t0, t1], averaging
  /// points within each bucket; empty buckets carry the step value at the
  /// bucket start. Requires non-empty series with first timestamp <= t0.
  [[nodiscard]] std::vector<TimePoint> resample(double t0, double t1,
                                                std::size_t n) const;

 private:
  std::vector<TimePoint> points_;
};

}  // namespace amoeba::stats
