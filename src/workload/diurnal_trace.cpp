#include "workload/diurnal_trace.hpp"

#include <algorithm>
#include <cmath>

namespace amoeba::workload {

void DiurnalTraceConfig::validate() const {
  AMOEBA_EXPECTS(period_s > 0.0);
  AMOEBA_EXPECTS(peak_qps > 0.0);
  AMOEBA_EXPECTS(trough_fraction > 0.0 && trough_fraction <= 1.0);
  AMOEBA_EXPECTS(morning_center >= 0.0 && morning_center <= 1.0);
  AMOEBA_EXPECTS(evening_center >= 0.0 && evening_center <= 1.0);
  AMOEBA_EXPECTS(peak_width > 0.0 && peak_width < 0.5);
  AMOEBA_EXPECTS(evening_relative > 0.0 && evening_relative <= 1.0);
  AMOEBA_EXPECTS(noise_cv >= 0.0);
  AMOEBA_EXPECTS(noise_interval_s > 0.0);
}

DiurnalTrace::DiurnalTrace(DiurnalTraceConfig cfg, std::uint64_t noise_seed)
    : cfg_(cfg), noise_seed_(noise_seed) {
  cfg_.validate();
  // With lognormal(mean=1, cv) noise, cap the factor at mean + 4 sigma so
  // max_rate() is a true bound for thinning.
  noise_cap_ = 1.0 + 4.0 * cfg_.noise_cv;
}

namespace {
// Periodic (wrapped) squared distance between day-fractions a and b.
double wrapped_delta(double a, double b) {
  double d = std::abs(a - b);
  return std::min(d, 1.0 - d);
}
}  // namespace

double DiurnalTrace::base_rate(double t) const {
  const double day_frac =
      std::fmod(t / cfg_.period_s + cfg_.phase + 1e6, 1.0);
  const double w = cfg_.peak_width;
  auto bump = [&](double center, double height) {
    const double d = wrapped_delta(day_frac, center);
    return height * std::exp(-0.5 * (d / w) * (d / w));
  };
  // Shape in [0, 1]: baseline trough plus two Gaussian rushes, clipped.
  double shape = cfg_.trough_fraction;
  shape += (1.0 - cfg_.trough_fraction) *
           std::min(1.0, bump(cfg_.morning_center, 1.0) +
                             bump(cfg_.evening_center, cfg_.evening_relative));
  return cfg_.peak_qps * std::min(shape, 1.0);
}

double DiurnalTrace::noise_factor(double t) const {
  if (cfg_.noise_cv <= 0.0) return 1.0;
  // Piecewise-constant factor: hash the interval index into an RNG stream.
  const auto interval = static_cast<std::uint64_t>(
      std::floor(t / cfg_.noise_interval_s) + 1.0e6);
  if (memo_valid_ && memo_interval_ == interval) return memo_factor_;
  sim::Rng rng(noise_seed_ ^ (interval * 0x9e3779b97f4a7c15ULL));
  const double f = rng.lognormal_mean_cv(1.0, cfg_.noise_cv);
  memo_valid_ = true;
  memo_interval_ = interval;
  memo_factor_ = std::min(f, noise_cap_);
  return memo_factor_;
}

double DiurnalTrace::rate(double t) const {
  return base_rate(t) * noise_factor(t);
}

double DiurnalTrace::max_rate() const { return cfg_.peak_qps * noise_cap_; }

}  // namespace amoeba::workload
