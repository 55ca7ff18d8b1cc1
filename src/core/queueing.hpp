// M/M/N queueing mathematics — the controller's discriminant function
// (paper §IV-A, Eq. 1–5).
//
// The serverless container pool is modelled as an M/M/N queue: Poisson
// arrivals at rate λ, N containers each with service rate μ, one FIFO
// queue. The stationary waiting-time distribution (Eq. 4)
//
//   F_W(t) = 1 − π_n/(1−ρ) · e^{−nμ(1−ρ)t}
//
// yields the paper's discriminant (Eq. 5): the largest arrival rate λ(μ)
// for which the r-ile latency stays below the QoS target T_D.
//
// All state-probability computations run in log space, so they stay
// finite for thousands of servers. log k! comes from a table of the first
// 256 values, built once on first use (thread-safe) from lgamma_r, and
// from lgamma_r itself above it; a solve computes its λ-independent parts
// once. None of these functions allocates.
#pragma once

#include <optional>
#include <vector>

#include "common/assert.hpp"

namespace amoeba::core::queueing {

/// Offered load per server: ρ = λ / (nμ). Stable iff ρ < 1.
[[nodiscard]] double rho(double lambda, int n, double mu);

/// The t with P{W <= t} = q under Eq. 4 (0 if the quantile is met with no
/// wait). Requires stability and q in (0, 1).
[[nodiscard]] double wait_quantile(double lambda, int n, double mu, double q);

/// The r-ile end-to-end latency estimate the paper uses: the Eq. 4 waiting
/// quantile plus one mean service time 1/μ.
[[nodiscard]] double latency_quantile(double lambda, int n, double mu,
                                      double r);

/// True if an M/M/N system with these parameters keeps the r-ile latency
/// within T_D. Unstable systems (ρ >= 1) never satisfy.
[[nodiscard]] bool qos_satisfied(double lambda, int n, double mu, double t_d,
                                 double r);

/// The paper's Eq. 5 evaluated at a given operating point: λ(μ) = nμ +
/// ln[(1−r)(1−ρ)/π_n] / (T_D − 1/μ). Because ρ and π_n themselves depend
/// on λ, the equation is implicit; this evaluates one fixed-point step from
/// `lambda_hint`. Returns nullopt when T_D <= 1/μ (service alone misses the
/// target) or the point is unstable.
[[nodiscard]] std::optional<double> eq5_lambda_step(double lambda_hint, int n,
                                                    double mu, double t_d,
                                                    double r);

/// Solve the implicit Eq. 5 by damped fixed-point iteration, starting from
/// ρ = 0.5. Returns nullopt if no stable λ > 0 satisfies the target. When
/// `iterates` is non-null, each fixed-point iterate (including the starting
/// point) is appended to it — the decision audit log records this
/// trajectory; it is cleared and left with the partial path on failure.
[[nodiscard]] std::optional<double> eq5_lambda(
    int n, double mu, double t_d, double r, int max_iters = 200,
    std::vector<double>* iterates = nullptr);

/// Numerically robust alternative: the largest λ with qos_satisfied(),
/// found by bisection over (0, nμ). Returns nullopt if even λ→0 misses the
/// target. Accurate to `tol` (absolute, queries/second).
[[nodiscard]] std::optional<double> max_arrival_rate(int n, double mu,
                                                     double t_d, double r,
                                                     double tol = 1e-6);

/// Smallest server count n with qos_satisfied(lambda, n, mu, t_d, r).
/// Returns nullopt if no n up to `n_limit` suffices (e.g. T_D < 1/μ).
[[nodiscard]] std::optional<int> min_servers(double lambda, double mu,
                                             double t_d, double r,
                                             int n_limit = 100000);

}  // namespace amoeba::core::queueing
