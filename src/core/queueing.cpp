#include "core/queueing.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace amoeba::core::queueing {

namespace {

void check_params(double lambda, int n, double mu) {
  AMOEBA_EXPECTS_VALS(lambda > 0.0, lambda);
  AMOEBA_EXPECTS_VALS(n >= 1, n);
  AMOEBA_EXPECTS_VALS(mu > 0.0, mu);
}

/// Postcondition shared by the state-probability functions: a probability.
bool is_probability(double p) { return p >= 0.0 && p <= 1.0; }

/// log Γ(x). `std::lgamma` also writes the global `signgam`, a data race
/// when sweeps run queueing math on several threads; `lgamma_r` returns the
/// sign through a local and computes the same value.
double log_gamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

/// log π₀ for a stable M/M/N system: −log Σ_k term(k) over the terms
/// below, as a log-sum-exp. Two passes (the maximum, then the shifted sum)
/// recompute each term, so no buffer is allocated; both passes visit the
/// terms in the same order, and a term is a pure function of k.
double log_pi0(double lambda, int n, double mu) {
  const double a = lambda / mu;  // offered load in Erlangs = nρ
  const double r = a / n;        // ρ
  const double log_a = std::log(a);
  const auto term = [&](int k) {
    if (k < n) return k * log_a - log_gamma(k + 1.0);
    // (nρ)^n / (n! (1-ρ))
    return n * log_a - log_gamma(n + 1.0) - std::log1p(-r);
  };
  double m = -std::numeric_limits<double>::infinity();
  for (int k = 0; k <= n; ++k) m = std::max(m, term(k));
  if (!std::isfinite(m)) return -m;
  double s = 0.0;
  for (int k = 0; k <= n; ++k) s += std::exp(term(k) - m);
  return -(m + std::log(s));
}

/// log π_n.
double log_pin(double lambda, int n, double mu) {
  const double a = lambda / mu;
  return n * std::log(a) - log_gamma(n + 1.0) + log_pi0(lambda, n, mu);
}

}  // namespace

double rho(double lambda, int n, double mu) {
  check_params(lambda, n, mu);
  return lambda / (n * mu);
}

double pi0(double lambda, int n, double mu) {
  check_params(lambda, n, mu);
  AMOEBA_EXPECTS_MSG(rho(lambda, n, mu) < 1.0, "system must be stable");
  const double p = std::exp(log_pi0(lambda, n, mu));
  AMOEBA_ENSURES_VALS(is_probability(p), p, lambda, n, mu);
  return p;
}

double pi_n(double lambda, int n, double mu) {
  check_params(lambda, n, mu);
  AMOEBA_EXPECTS_MSG(rho(lambda, n, mu) < 1.0, "system must be stable");
  const double p = std::exp(log_pin(lambda, n, mu));
  AMOEBA_ENSURES_VALS(is_probability(p), p, lambda, n, mu);
  return p;
}

double erlang_c(double lambda, int n, double mu) {
  check_params(lambda, n, mu);
  const double r = rho(lambda, n, mu);
  AMOEBA_EXPECTS_MSG(r < 1.0, "system must be stable");
  const double c = std::exp(log_pin(lambda, n, mu) - std::log1p(-r));
  AMOEBA_ENSURES_VALS(is_probability(c), c, lambda, n, mu);
  return c;
}

double wait_quantile(double lambda, int n, double mu, double q) {
  check_params(lambda, n, mu);
  AMOEBA_EXPECTS(q > 0.0 && q < 1.0);
  const double r = rho(lambda, n, mu);
  AMOEBA_EXPECTS_MSG(r < 1.0, "system must be stable");
  // F_W(t) = 1 - C e^{-nμ(1-ρ)t} with C = π_n/(1-ρ) (Eq. 4).
  const double log_c = log_pin(lambda, n, mu) - std::log1p(-r);
  // Solve 1 - C e^{-θt} = q  ->  t = (log C - log(1-q)) / θ.
  const double theta = n * mu * (1.0 - r);
  const double t = std::max((log_c - std::log1p(-q)) / theta, 0.0);
  AMOEBA_ENSURES_VALS(std::isfinite(t), t, lambda, n, mu, q);
  return t;
}

double latency_quantile(double lambda, int n, double mu, double r) {
  return wait_quantile(lambda, n, mu, r) + 1.0 / mu;
}

bool qos_satisfied(double lambda, int n, double mu, double t_d, double r) {
  check_params(lambda, n, mu);
  AMOEBA_EXPECTS(t_d > 0.0);
  if (rho(lambda, n, mu) >= 1.0) return false;
  return latency_quantile(lambda, n, mu, r) <= t_d;
}

std::optional<double> eq5_lambda_step(double lambda_hint, int n, double mu,
                                      double t_d, double r) {
  check_params(lambda_hint, n, mu);
  AMOEBA_EXPECTS(t_d > 0.0);
  AMOEBA_EXPECTS(r > 0.0 && r < 1.0);
  const double slack = t_d - 1.0 / mu;
  if (slack <= 0.0) return std::nullopt;
  const double rh = rho(lambda_hint, n, mu);
  if (rh >= 1.0) return std::nullopt;
  // ln[(1-r)(1-ρ)/π_n] evaluated at the hint.
  const double log_ratio =
      std::log1p(-r) + std::log1p(-rh) - log_pin(lambda_hint, n, mu);
  return n * mu + log_ratio / slack;
}

std::optional<double> eq5_lambda(int n, double mu, double t_d, double r,
                                 int max_iters,
                                 std::vector<double>* iterates) {
  AMOEBA_EXPECTS(max_iters > 0);
  if (iterates != nullptr) iterates->clear();
  if (t_d <= 1.0 / mu) return std::nullopt;
  double lambda = 0.5 * n * mu;
  if (iterates != nullptr) iterates->push_back(lambda);
  for (int i = 0; i < max_iters; ++i) {
    const auto next = eq5_lambda_step(lambda, n, mu, t_d, r);
    if (!next.has_value()) return std::nullopt;
    // Damp and clamp into the stable region; the bare fixed point can
    // overshoot ρ >= 1 when the target is loose.
    double nl = 0.5 * lambda + 0.5 * *next;
    nl = std::clamp(nl, 1e-9 * n * mu, (1.0 - 1e-9) * n * mu);
    if (iterates != nullptr) iterates->push_back(nl);
    if (std::abs(nl - lambda) <= 1e-9 * n * mu) {
      lambda = nl;
      break;
    }
    lambda = nl;
  }
  if (lambda <= 1e-6 * n * mu) return std::nullopt;
  // The clamp above keeps every returned operating point stable (ρ < 1).
  AMOEBA_ENSURES_VALS(lambda < n * mu, lambda, n, mu);
  return lambda;
}

std::optional<double> max_arrival_rate(int n, double mu, double t_d, double r,
                                       double tol) {
  AMOEBA_EXPECTS(n >= 1);
  AMOEBA_EXPECTS(mu > 0.0);
  AMOEBA_EXPECTS(t_d > 0.0);
  AMOEBA_EXPECTS(r > 0.0 && r < 1.0);
  AMOEBA_EXPECTS(tol > 0.0);
  const double hi_bound = n * mu * (1.0 - 1e-12);
  const double lo_probe = std::min(1e-9 * n * mu, hi_bound / 2.0);
  if (!qos_satisfied(lo_probe, n, mu, t_d, r)) return std::nullopt;
  // qos_satisfied is monotone decreasing in λ: bisect the boundary.
  double lo = lo_probe;        // satisfied
  double hi = hi_bound;        // not satisfied (ρ→1 diverges)
  if (qos_satisfied(hi, n, mu, t_d, r)) return hi;
  while (hi - lo > tol) {
    const double mid = 0.5 * (lo + hi);
    if (qos_satisfied(mid, n, mu, t_d, r)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::optional<int> min_servers(double lambda, double mu, double t_d, double r,
                               int n_limit) {
  AMOEBA_EXPECTS(lambda > 0.0);
  AMOEBA_EXPECTS(mu > 0.0);
  AMOEBA_EXPECTS(n_limit >= 1);
  if (t_d <= 1.0 / mu) return std::nullopt;
  // Start just above the stability floor and scan up; the count is small in
  // practice so a doubling + linear refinement is unnecessary.
  int n = std::max(1, static_cast<int>(std::ceil(lambda / mu)));
  for (; n <= n_limit; ++n) {
    if (rho(lambda, n, mu) >= 1.0) continue;
    if (qos_satisfied(lambda, n, mu, t_d, r)) return n;
  }
  return std::nullopt;
}

double mean_wait(double lambda, int n, double mu) {
  const double c = erlang_c(lambda, n, mu);
  const double w = c / (n * mu - lambda);
  AMOEBA_ENSURES_VALS(w >= 0.0 && std::isfinite(w), w, lambda, n, mu);
  return w;
}

}  // namespace amoeba::core::queueing
