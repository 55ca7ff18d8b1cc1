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

namespace {
// Periodic (wrapped) distance between day-fractions a and b, in [0, 0.5].
double wrapped_delta(double a, double b) {
  double d = std::abs(a - b);
  return std::min(d, 1.0 - d);
}

// Whether wrapped_delta(x, c) takes the wrapped branch 1 - |x - c|.
bool wraps(double x, double c) {
  const double d = std::abs(x - c);
  return 1.0 - d < d;
}

// Nearest and farthest wrapped distance from a rush centre over a bin.
struct DistanceRange {
  double near = 0.0;
  double far = 0.0;
};

// The range of wrapped_delta(x, c), as computed, over x in [a, b]. Off the
// centre and the antipode, wrapped_delta(x, c) is monotone in x (as
// computed, too: x - c keeps its sign and rounding is monotone), so its
// extremes over [a, b] lie at the ends. A bin holding the centre reaches
// 0; a bin where the branch switches holds the antipode and may reach 0.5,
// the largest value wrapped_delta returns.
DistanceRange distance_range(double a, double b, double c) {
  const double da = wrapped_delta(a, c);
  const double db = wrapped_delta(b, c);
  return {(a <= c && c <= b) ? 0.0 : std::min(da, db),
          wraps(a, c) != wraps(b, c) ? 0.5 : std::max(da, db)};
}
}  // namespace

DiurnalTrace::DiurnalTrace(DiurnalTraceConfig cfg, std::uint64_t noise_seed)
    : cfg_(cfg), noise_seed_(noise_seed) {
  cfg_.validate();
  // With lognormal(mean=1, cv) noise, cap the factor at mean + 4 sigma so
  // max_rate() is a true bound for thinning.
  noise_cap_ = 1.0 + 4.0 * cfg_.noise_cv;
  // The envelope: per bin, the rate at the rushes' nearest and farthest
  // distances over the bin (rate_at falls as either distance grows).
  // rate_at's every step (the divide, the square, exp, the products, sums
  // and clips) is monotone in the distance as computed in floating point,
  // save exp, which is within 1 ulp of exact; wrapped_delta is monotone
  // between a centre and its antipode. So the computed base_rate at any
  // day fraction in the bin lies in [lo, hi] up to an ulp or two of exp's
  // rounding (about 2e-16 relative), which the relative margin of 1e-9
  // dwarfs. base_rate never exceeds peak_qps (it is peak_qps times a clip
  // at 1), so hi is clipped there too. rate() multiplies base_rate by the
  // noise factor and rate_bounds multiplies lo and hi by the same factor;
  // rounding is monotone, so the bracket survives the product exactly.
  constexpr double kMargin = 1e-9;
  constexpr auto kBins = static_cast<double>(kEnvelopeBins);
  for (std::size_t i = 0; i < kEnvelopeBins; ++i) {
    const double a = static_cast<double>(i) / kBins;
    const double b = static_cast<double>(i + 1) / kBins;
    const DistanceRange m = distance_range(a, b, cfg_.morning_center);
    const DistanceRange e = distance_range(a, b, cfg_.evening_center);
    RateBounds& bin = envelope_[i];
    bin.lo = rate_at(m.far, e.far) * (1.0 - kMargin);
    bin.hi = std::min(rate_at(m.near, e.near) * (1.0 + kMargin),
                      cfg_.peak_qps);
    AMOEBA_ASSERT(bin.hi * noise_cap_ <= max_rate() * (1.0 + 1e-9));
  }
}

double DiurnalTrace::day_fraction(double t) const {
  // x - floor(x) is exact, and equals fmod(x, 1.0), for x >= 0.
  const double x = t / cfg_.period_s + cfg_.phase + 1e6;
  AMOEBA_ASSERT(x >= 0.0);
  return x - std::floor(x);
}

double DiurnalTrace::rate_at(double d_morning, double d_evening) const {
  const double w = cfg_.peak_width;
  auto bump = [w](double d, double height) {
    return height * std::exp(-0.5 * (d / w) * (d / w));
  };
  // Shape in [0, 1]: baseline trough plus two Gaussian rushes, clipped.
  double shape = cfg_.trough_fraction;
  shape += (1.0 - cfg_.trough_fraction) *
           std::min(1.0, bump(d_morning, 1.0) +
                             bump(d_evening, cfg_.evening_relative));
  return cfg_.peak_qps * std::min(shape, 1.0);
}

double DiurnalTrace::base_rate(double t) const {
  const double day_frac = day_fraction(t);
  return rate_at(wrapped_delta(day_frac, cfg_.morning_center),
                 wrapped_delta(day_frac, cfg_.evening_center));
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

RateBounds DiurnalTrace::rate_bounds(double t) const {
  // day_fraction < 1 and the bin count is a power of two, so the product
  // is exact and the index below kEnvelopeBins.
  const auto bin = static_cast<std::size_t>(day_fraction(t) *
                                            static_cast<double>(kEnvelopeBins));
  const RateBounds& b = envelope_[bin];
  const double f = noise_factor(t);
  return {b.lo * f, b.hi * f};
}

}  // namespace amoeba::workload
