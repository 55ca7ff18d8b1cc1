#include "stats/rate_estimator.hpp"

namespace amoeba::stats {

RateEstimator::RateEstimator(double window_seconds) : window_(window_seconds) {
  AMOEBA_EXPECTS(window_seconds > 0.0);
}

void RateEstimator::record(double t) {
  AMOEBA_EXPECTS_MSG(arrivals_.empty() || t >= arrivals_.back(),
                     "arrival timestamps must be non-decreasing");
  if (!has_observation_) {
    first_observation_ = t;
    has_observation_ = true;
  }
  arrivals_.push_back(t);
}

// Eviction boundary: the window is the half-open interval (now - W, now].
// An arrival exactly W seconds old (front() == now - W) has aged out; one
// exactly at `now` is in. `<=` implements that — keeping it documents the
// choice rather than drifting between `<` and `<=` by accident. The same
// convention makes rate() at t = first + W count arrivals over (first,
// first + W], exactly one full window after warm-up ends.
void RateEstimator::evict(double now) const {
  while (!arrivals_.empty() && arrivals_.front() <= now - window_) {
    arrivals_.pop_front();
  }
}

double RateEstimator::rate(double now) const {
  evict(now);
  double divisor = window_;
  if (has_observation_) {
    const double elapsed = now - first_observation_;
    if (elapsed > 0.0 && elapsed < window_) divisor = elapsed;
  }
  return static_cast<double>(arrivals_.size()) / divisor;
}

}  // namespace amoeba::stats
