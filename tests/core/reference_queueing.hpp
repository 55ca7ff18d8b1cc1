// M/M/N closed forms the queueing tests check the simulator and the
// discriminant against (paper §IV-A, Eq. 1–4).
//
// The library computes only what the controller needs (the Eq. 4 waiting
// quantile, Eq. 5 and the bisection solver); these state probabilities,
// the Erlang-C probability and the mean wait are test oracles. They share
// no code with core/queueing.cpp: log k! comes from lgamma_r on every term
// (the library's table holds the very same doubles), and the log-space
// arithmetic is the library's, expression for expression, so every value
// is bit-equal to what the library computed when it held these functions.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/assert.hpp"

namespace amoeba::core::queueing::testing {

namespace detail {

inline void check_stable(double lambda, int n, double mu) {
  AMOEBA_EXPECTS_VALS(lambda > 0.0, lambda);
  AMOEBA_EXPECTS_VALS(n >= 1, n);
  AMOEBA_EXPECTS_VALS(mu > 0.0, mu);
  AMOEBA_EXPECTS_MSG(lambda / (n * mu) < 1.0, "system must be stable");
}

/// Postcondition of the state probabilities.
inline bool is_probability(double p) { return p >= 0.0 && p <= 1.0; }

/// log k! through lgamma_r, which (unlike std::lgamma) writes no global.
inline double log_factorial(int k) {
  int sign = 0;
  return ::lgamma_r(k + 1.0, &sign);
}

/// log π₀ and log π_n of a stable M/M/n system.
struct LogPi {
  double pi0;
  double pin;
};

inline LogPi log_pi(double lambda, int n, double mu) {
  const double a = lambda / mu;  // offered load in Erlangs, nρ
  const double log_a = std::log(a);
  // log(a^n / n!)
  const double head = n * log_a - log_factorial(n);
  // ρ as (λ/μ)/n: the library computes it this way here.
  const double r = a / n;
  // (nρ)^n / (n! (1-ρ))
  const double last = head - std::log1p(-r);
  const auto term = [&](int k) {
    return k < n ? k * log_a - log_factorial(k) : last;
  };
  // −log Σ_k term(k) as a log-sum-exp.
  double m = -std::numeric_limits<double>::infinity();
  for (int k = 0; k <= n; ++k) m = std::max(m, term(k));
  double log_pi0 = -m;
  if (std::isfinite(m)) {
    double s = 0.0;
    for (int k = 0; k <= n; ++k) s += std::exp(term(k) - m);
    log_pi0 = -(m + std::log(s));
  }
  return {log_pi0, head + log_pi0};
}

}  // namespace detail

/// π₀: probability of an empty system (Eq. 1 normalization).
[[nodiscard]] inline double pi0(double lambda, int n, double mu) {
  detail::check_stable(lambda, n, mu);
  const double p = std::exp(detail::log_pi(lambda, n, mu).pi0);
  AMOEBA_ENSURES_VALS(detail::is_probability(p), p, lambda, n, mu);
  return p;
}

/// π_n: probability of exactly n queries in the system (Eq. 1, k = n).
[[nodiscard]] inline double pi_n(double lambda, int n, double mu) {
  detail::check_stable(lambda, n, mu);
  const double p = std::exp(detail::log_pi(lambda, n, mu).pin);
  AMOEBA_ENSURES_VALS(detail::is_probability(p), p, lambda, n, mu);
  return p;
}

/// Erlang-C: probability an arriving query must wait, P{W > 0} =
/// π_n / (1 − ρ) (complement of Eq. 2).
[[nodiscard]] inline double erlang_c(double lambda, int n, double mu) {
  detail::check_stable(lambda, n, mu);
  const double rho = lambda / (n * mu);
  const double c =
      std::exp(detail::log_pi(lambda, n, mu).pin - std::log1p(-rho));
  AMOEBA_ENSURES_VALS(detail::is_probability(c), c, lambda, n, mu);
  return c;
}

/// Mean waiting time E[W] = ErlangC / (nμ − λ).
[[nodiscard]] inline double mean_wait(double lambda, int n, double mu) {
  const double c = erlang_c(lambda, n, mu);
  const double w = c / (n * mu - lambda);
  AMOEBA_ENSURES_VALS(w >= 0.0 && std::isfinite(w), w, lambda, n, mu);
  return w;
}

}  // namespace amoeba::core::queueing::testing
