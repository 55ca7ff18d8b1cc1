// Logarithmic histogram for latency distributions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/assert.hpp"

namespace amoeba::stats {

/// Log-spaced histogram for values spanning several decades (latencies).
class LogHistogram {
 public:
  /// Bins span [lo, hi) with `bins_per_decade` log10-uniform bins.
  LogHistogram(double lo, double hi, std::size_t bins_per_decade);

  void add(double x, std::uint64_t weight = 1);
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] double quantile(double q) const;

 private:
  double log_lo_, log_hi_, inv_log_width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0, overflow_ = 0, total_ = 0;
  double min_seen_ = 0.0, max_seen_ = 0.0;
};

}  // namespace amoeba::stats
