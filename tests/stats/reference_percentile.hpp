// The free-function percentile SampleSet::quantile is checked against.
//
// The library answers quantile queries through stats::SampleSet, which
// sorts a copy of its samples once. This oracle selects instead
// (nth_element, then min_element), so the two share no code path.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/assert.hpp"

namespace amoeba::stats::testing {

/// Exact q-quantile (0 <= q <= 1) of `samples` using linear interpolation
/// between closest ranks (the "R-7" rule used by numpy's default).
[[nodiscard]] inline double percentile(std::vector<double> samples,
                                       double q) {
  AMOEBA_EXPECTS(!samples.empty());
  AMOEBA_EXPECTS(q >= 0.0 && q <= 1.0);
  const double h = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const auto hi = static_cast<std::size_t>(std::ceil(h));
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(lo),
                   samples.end());
  const double vlo = samples[lo];
  if (hi == lo) return vlo;
  const double vhi =
      *std::min_element(samples.begin() + static_cast<std::ptrdiff_t>(lo) + 1,
                        samples.end());
  return vlo + (h - static_cast<double>(lo)) * (vhi - vlo);
}

}  // namespace amoeba::stats::testing
