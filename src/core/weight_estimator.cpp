#include "core/weight_estimator.hpp"

#include <algorithm>
#include <cmath>

namespace amoeba::core {

WeightEstimator::WeightEstimator(WeightEstimatorConfig cfg, double solo_latency,
                                 double alpha)
    : cfg_(cfg), l0_(solo_latency), alpha_(alpha) {
  AMOEBA_EXPECTS(solo_latency > 0.0);
  AMOEBA_EXPECTS(alpha >= 0.0);
  AMOEBA_EXPECTS(cfg.min_samples >= kNumResources + 1);
  AMOEBA_EXPECTS(cfg.max_samples >= cfg.min_samples);
  AMOEBA_EXPECTS(cfg.min_explained > 0.0 && cfg.min_explained <= 1.0);
  AMOEBA_EXPECTS(cfg.refit_interval >= 1);
  AMOEBA_EXPECTS_VALS(cfg.ridge >= 0.0, cfg.ridge);
  AMOEBA_EXPECTS_VALS(
      cfg.feature_cap_s >= 0.0 && std::isfinite(cfg.feature_cap_s),
      cfg.feature_cap_s);
}

Features WeightEstimator::clamped(const Features& f) const {
  if (cfg_.feature_cap_s <= 0.0) return f;
  Features out = f;
  for (double& v : out) v = std::min(v, cfg_.feature_cap_s);
  return out;
}

void WeightEstimator::observe(const Features& predicted,
                              double observed_latency) {
  AMOEBA_EXPECTS(observed_latency > 0.0);
  for (double v : predicted) AMOEBA_EXPECTS(v >= 0.0);
  const Sample in{clamped(predicted), observed_latency};
  moments_.add(in.x, in.y);
  if (window_.size() < cfg_.max_samples) {
    window_.push_back(in);
  } else {
    // The new sample takes the oldest one's slot.
    Sample& out = window_[oldest_];
    moments_.remove_oldest(out.x, out.y);
    out = in;
    oldest_ = (oldest_ + 1) % window_.size();
  }
  // Re-sum exactly once per window length: bounds the rounding drift of
  // the streamed updates at amortized O(1) per heartbeat. Every
  // max_samples-th heartbeat fills the window or wraps the ring, so the
  // samples are in arrival order, as resum reads them.
  if (++since_resum_ == cfg_.max_samples) {
    since_resum_ = 0;
    AMOEBA_INVARIANT_VALS(oldest_ == 0, oldest_);
    moments_.resum(window_);
  }
  ++since_refit_;
  maybe_refit();
}

void WeightEstimator::maybe_refit() {
  if (!cfg_.enable_pca) return;
  if (window_.size() < cfg_.min_samples) return;
  if (calibrated() && since_refit_ < cfg_.refit_interval) return;
  since_refit_ = 0;
  linalg::fit_pcr(moments_, model_, scratch_, cfg_.min_explained, cfg_.ridge);
  ++refits_;
}

double WeightEstimator::accumulate_prediction(const Features& f) const {
  // Amoeba-NoM: assume each resource's degradation adds on top of L0
  // (paper §VII-C: "pessimistically assume that the QoS degradations ...
  // are accumulated").
  double service = l0_;
  for (double li : f) service += std::max(0.0, li - l0_);
  return service + alpha_;
}

double WeightEstimator::predict_service_time(const Features& raw) const {
  const Features f = clamped(raw);
  if (!calibrated()) return accumulate_prediction(f);
  double p = model_.predict(f);
  // If any surface hit the cap, the operating point is outside the
  // calibrated regime: take the pessimistic max of the regression and the
  // accumulation prediction so saturation is never explained away.
  if (cfg_.feature_cap_s > 0.0) {
    for (std::size_t i = 0; i < kNumResources; ++i) {
      if (raw[i] >= cfg_.feature_cap_s) {
        p = std::max(p, accumulate_prediction(f));
        break;
      }
    }
  }
  // A regression extrapolating into thin data can under-shoot physics:
  // never predict below the uncontended floor.
  p = std::max(p, l0_ + alpha_);
  AMOEBA_ENSURES_VALS(p > 0.0 && std::isfinite(p), p);
  return p;
}

double WeightEstimator::mu(const Features& f) const {
  const double m = 1.0 / predict_service_time(f);
  // μ feeds the M/M/N discriminant directly; a non-positive or non-finite
  // rate would invalidate every downstream stability check.
  AMOEBA_ENSURES_VALS(m > 0.0 && std::isfinite(m), m);
  return m;
}

std::optional<std::array<double, kNumResources>> WeightEstimator::weights()
    const {
  if (!calibrated()) return std::nullopt;
  const auto beta = model_.raw_coefficients();
  AMOEBA_ASSERT(beta.size() == kNumResources);
  std::array<double, kNumResources> w{};
  std::copy(beta.begin(), beta.end(), w.begin());
  return w;
}

}  // namespace amoeba::core
