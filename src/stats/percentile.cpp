#include "stats/percentile.hpp"

#include <algorithm>
#include <cmath>

namespace amoeba::stats {

void SampleSet::ensure_sorted() const {
  if (!dirty_) return;
  sorted_ = samples_;
  std::sort(sorted_.begin(), sorted_.end());
  dirty_ = false;
}

double SampleSet::quantile(double q) const {
  AMOEBA_EXPECTS(!empty());
  AMOEBA_EXPECTS(q >= 0.0 && q <= 1.0);
  ensure_sorted();
  const double h = q * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const auto hi = static_cast<std::size_t>(std::ceil(h));
  if (hi == lo) return sorted_[lo];
  return sorted_[lo] + (h - static_cast<double>(lo)) * (sorted_[hi] - sorted_[lo]);
}

double SampleSet::cdf_at(double x) const {
  if (empty()) return 0.0;
  ensure_sorted();
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double SampleSet::fraction_above(double threshold) const {
  if (empty()) return 0.0;
  return 1.0 - cdf_at(threshold);
}

}  // namespace amoeba::stats
