// Exact percentile / CDF queries over collected samples.
#pragma once

#include <cstddef>
#include <vector>

#include "common/assert.hpp"

namespace amoeba::stats {

/// Accumulates raw samples and answers percentile / CDF queries. Quantiles
/// interpolate linearly between closest ranks (the "R-7" rule used by
/// numpy's default).
/// Memory is O(n); use `stats::LogHistogram` (stats/histogram.hpp) for
/// bounded-memory approximate quantiles where a stream is too large.
class SampleSet {
 public:
  void add(double x) { samples_.push_back(x); dirty_ = true; }
  void reserve(std::size_t n) { samples_.reserve(n); }

  [[nodiscard]] std::size_t size() const noexcept { return samples_.size(); }
  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }

  /// q in [0,1]; requires non-empty set.
  [[nodiscard]] double quantile(double q) const;

  /// Empirical CDF evaluated at `x`: fraction of samples <= x.
  [[nodiscard]] double cdf_at(double x) const;

  /// Fraction of samples strictly greater than `threshold` (e.g. the
  /// QoS-violation ratio when `threshold` is the latency target).
  [[nodiscard]] double fraction_above(double threshold) const;

  [[nodiscard]] const std::vector<double>& raw() const noexcept {
    return samples_;
  }

  void clear() { samples_.clear(); dirty_ = true; }

 private:
  void ensure_sorted() const;
  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool dirty_ = true;
};

}  // namespace amoeba::stats
