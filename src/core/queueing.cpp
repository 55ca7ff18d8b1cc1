#include "core/queueing.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace amoeba::core::queueing {

namespace {

void check_params(double lambda, int n, double mu) {
  AMOEBA_EXPECTS_VALS(lambda > 0.0, lambda);
  AMOEBA_EXPECTS_VALS(n >= 1, n);
  AMOEBA_EXPECTS_VALS(mu > 0.0, mu);
}

/// log Γ(x). `std::lgamma` also writes the global `signgam`, a data race
/// when sweeps run queueing math on several threads; `lgamma_r` returns the
/// sign through a local and computes the same value.
double log_gamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

/// Entries of the log-factorial table: log k! for k < 256. The controller's
/// n is bounded by the 128-container pool, and min_servers scans start at
/// the offered load, a few servers in every shipped scenario.
constexpr int kLogFactorials = 256;

/// log k! for k < kLogFactorials. Entry k is `log_gamma(k + 1.0)`, so a
/// lookup returns the very double the call would (a compile-time or
/// correctly rounded log-gamma could differ from glibc's in the last bit).
/// Built on first use; C++ initializes a function-local static exactly
/// once, also when several threads reach it together, and every later call
/// only reads it.
const std::array<double, kLogFactorials>& log_factorials() {
  static const std::array<double, kLogFactorials> table = [] {
    std::array<double, kLogFactorials> t{};
    for (int k = 0; k < kLogFactorials; ++k) {
      t[static_cast<std::size_t>(k)] = log_gamma(k + 1.0);
    }
    return t;
  }();
  return table;
}

/// An M/M/n system's λ-independent parts, computed once and reused at
/// every λ a solve visits: nμ, log n! and the log-factorial table. Each
/// shared value is the same expression every λ would compute, so sharing
/// it moves no bit.
class Mmn {
 public:
  Mmn(int n, double mu)
      : n_(n),
        mu_(mu),
        n_mu_(n * mu),
        log_factorials_(log_factorials()),
        log_n_factorial_(log_factorial(n)) {}

  /// ρ = λ / (nμ), as queueing::rho computes it.
  [[nodiscard]] double rho(double lambda) const { return lambda / n_mu_; }

  [[nodiscard]] double log_pin(double lambda) const {
    const double a = lambda / mu_;
    const double log_a = std::log(a);
    const double h = head(log_a);
    return h + log_pi0(a, log_a, h);
  }

  /// The t with P{W <= t} = q under Eq. 4, given ρ = rho(λ) < 1 and
  /// log1m_q = log(1 − q).
  [[nodiscard]] double wait_quantile(double lambda, double rho,
                                     double log1m_q) const {
    // F_W(t) = 1 - C e^{-nμ(1-ρ)t} with C = π_n/(1-ρ) (Eq. 4).
    const double log_c = log_pin(lambda) - std::log1p(-rho);
    // Solve 1 - C e^{-θt} = q  ->  t = (log C - log(1-q)) / θ.
    const double theta = n_mu_ * (1.0 - rho);
    const double t = std::max((log_c - log1m_q) / theta, 0.0);
    AMOEBA_ENSURES_VALS(std::isfinite(t), t, lambda, n_, mu_, log1m_q);
    return t;
  }

 private:
  [[nodiscard]] double log_factorial(int k) const {
    return k < kLogFactorials ? log_factorials_[static_cast<std::size_t>(k)]
                              : log_gamma(k + 1.0);
  }

  /// log(a^n / n!) for a = λ/μ.
  [[nodiscard]] double head(double log_a) const {
    return n_ * log_a - log_n_factorial_;
  }

  /// log π₀ for a stable system with a = λ/μ (offered load in Erlangs,
  /// nρ) and h = head(log a): −log Σ_k term(k) as a log-sum-exp. Two
  /// passes (the maximum, then the shifted sum) recompute each term, so no
  /// buffer is allocated; both passes visit the terms in the same order,
  /// and a term is a pure function of k.
  [[nodiscard]] double log_pi0(double a, double log_a, double h) const {
    // ρ as (λ/μ)/n, not rho()'s λ/(nμ): the two can round apart.
    const double r = a / n_;
    // (nρ)^n / (n! (1-ρ))
    const double last = h - std::log1p(-r);
    const auto term = [&](int k) {
      return k < n_ ? k * log_a - log_factorial(k) : last;
    };
    double m = -std::numeric_limits<double>::infinity();
    for (int k = 0; k <= n_; ++k) m = std::max(m, term(k));
    if (!std::isfinite(m)) return -m;
    double s = 0.0;
    for (int k = 0; k <= n_; ++k) s += std::exp(term(k) - m);
    return -(m + std::log(s));
  }

  int n_;
  double mu_;
  double n_mu_;
  const std::array<double, kLogFactorials>& log_factorials_;
  double log_n_factorial_;
};

}  // namespace

double rho(double lambda, int n, double mu) {
  check_params(lambda, n, mu);
  return lambda / (n * mu);
}

double wait_quantile(double lambda, int n, double mu, double q) {
  check_params(lambda, n, mu);
  AMOEBA_EXPECTS(q > 0.0 && q < 1.0);
  const Mmn mmn(n, mu);
  const double r = mmn.rho(lambda);
  AMOEBA_EXPECTS_MSG(r < 1.0, "system must be stable");
  return mmn.wait_quantile(lambda, r, std::log1p(-q));
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
      std::log1p(-r) + std::log1p(-rh) - Mmn(n, mu).log_pin(lambda_hint);
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
  // qos_satisfied(λ, n, mu, t_d, r) with everything that does not depend
  // on λ computed once: the parameters are checked above, and the bisection
  // never leaves (0, nμ).
  const Mmn mmn(n, mu);
  const double log1m_r = std::log1p(-r);
  const double service_s = 1.0 / mu;
  const auto satisfied = [&](double lambda) {
    const double rho_l = mmn.rho(lambda);
    if (rho_l >= 1.0) return false;
    return mmn.wait_quantile(lambda, rho_l, log1m_r) + service_s <= t_d;
  };
  const double hi_bound = n * mu * (1.0 - 1e-12);
  const double lo_probe = std::min(1e-9 * n * mu, hi_bound / 2.0);
  if (!satisfied(lo_probe)) return std::nullopt;
  // qos_satisfied is monotone decreasing in λ: bisect the boundary.
  double lo = lo_probe;        // satisfied
  double hi = hi_bound;        // not satisfied (ρ→1 diverges)
  if (satisfied(hi)) return hi;
  while (hi - lo > tol) {
    const double mid = 0.5 * (lo + hi);
    if (satisfied(mid)) {
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

}  // namespace amoeba::core::queueing
