#include "stats/timeseries.hpp"

#include <algorithm>

namespace amoeba::stats {

void TimeSeries::add(double t, double value) {
  AMOEBA_EXPECTS_MSG(points_.empty() || t >= points_.back().t,
                     "timestamps must be non-decreasing");
  points_.push_back({t, value});
}

double TimeSeries::value_at(double t) const {
  AMOEBA_EXPECTS(!points_.empty());
  AMOEBA_EXPECTS_MSG(t >= points_.front().t, "query before first observation");
  // Last point with timestamp <= t.
  auto it = std::upper_bound(
      points_.begin(), points_.end(), t,
      [](double x, const TimePoint& p) { return x < p.t; });
  return std::prev(it)->value;
}

std::vector<TimePoint> TimeSeries::resample(double t0, double t1,
                                            std::size_t n) const {
  AMOEBA_EXPECTS(!points_.empty());
  AMOEBA_EXPECTS(t1 > t0);
  AMOEBA_EXPECTS(n >= 1);
  AMOEBA_EXPECTS(points_.front().t <= t0);
  std::vector<TimePoint> out;
  out.reserve(n);
  const double dt = (t1 - t0) / static_cast<double>(n);
  std::size_t idx = 0;
  for (std::size_t b = 0; b < n; ++b) {
    const double lo = t0 + dt * static_cast<double>(b);
    const double hi = lo + dt;
    while (idx < points_.size() && points_[idx].t < lo) ++idx;
    double sum = 0.0;
    std::size_t cnt = 0;
    std::size_t j = idx;
    while (j < points_.size() && points_[j].t < hi) {
      sum += points_[j].value;
      ++cnt;
      ++j;
    }
    const double v = cnt > 0 ? sum / static_cast<double>(cnt) : value_at(lo);
    out.push_back({lo + dt / 2.0, v});
  }
  return out;
}

}  // namespace amoeba::stats
