#include "stats/histogram.hpp"

#include <algorithm>
#include <cmath>

namespace amoeba::stats {

LogHistogram::LogHistogram(double lo, double hi, std::size_t bins_per_decade) {
  AMOEBA_EXPECTS(lo > 0.0 && hi > lo);
  AMOEBA_EXPECTS(bins_per_decade > 0);
  log_lo_ = std::log10(lo);
  log_hi_ = std::log10(hi);
  const double decades = log_hi_ - log_lo_;
  const auto nbins = static_cast<std::size_t>(
      std::ceil(decades * static_cast<double>(bins_per_decade)));
  counts_.assign(std::max<std::size_t>(nbins, 1), 0);
  inv_log_width_ = static_cast<double>(counts_.size()) / (log_hi_ - log_lo_);
}

void LogHistogram::add(double x, std::uint64_t weight) {
  if (total_ == 0) {
    min_seen_ = max_seen_ = x;
  } else {
    min_seen_ = std::min(min_seen_, x);
    max_seen_ = std::max(max_seen_, x);
  }
  total_ += weight;
  if (x <= 0.0 || std::log10(x) < log_lo_) {
    underflow_ += weight;
    return;
  }
  const double lx = std::log10(x);
  if (lx >= log_hi_) {
    overflow_ += weight;
    return;
  }
  auto bin = static_cast<std::size_t>((lx - log_lo_) * inv_log_width_);
  if (bin >= counts_.size()) bin = counts_.size() - 1;
  counts_[bin] += weight;
}

double LogHistogram::quantile(double q) const {
  AMOEBA_EXPECTS(total_ > 0);
  AMOEBA_EXPECTS(q >= 0.0 && q <= 1.0);
  const double target = q * static_cast<double>(total_);
  double cum = static_cast<double>(underflow_);
  if (target <= cum) return min_seen_;
  const double log_width = (log_hi_ - log_lo_) / static_cast<double>(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cum + static_cast<double>(counts_[i]);
    if (target <= next && counts_[i] > 0) {
      const double frac = (target - cum) / static_cast<double>(counts_[i]);
      const double lx = log_lo_ + (static_cast<double>(i) + frac) * log_width;
      return std::pow(10.0, lx);
    }
    cum = next;
  }
  return max_seen_;
}

}  // namespace amoeba::stats
