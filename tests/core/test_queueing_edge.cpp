// Edge cases of the M/M/N discriminant (Eq. 1–5) and the Eq. 7 prewarm
// count: near-saturation, single server, zero/negative-rate rejection, and
// exact-integer Eq. 7 boundaries.
#include <gtest/gtest.h>

#include <cmath>

#include "common/assert.hpp"
#include "core/prewarm_policy.hpp"
#include "core/queueing.hpp"
#include "core/reference_queueing.hpp"

namespace amoeba::core::queueing {
namespace {

using testing::erlang_c;
using testing::mean_wait;
using testing::pi0;
using testing::pi_n;

constexpr double kMu = 2.0;

TEST(QueueingEdge, NearSaturationStaysFiniteAndInRange) {
  // rho -> 1-: the math runs in log space, so probabilities must stay
  // finite and inside [0, 1] arbitrarily close to the stability boundary.
  for (const int n : {1, 4, 40}) {
    for (const double eps : {1e-3, 1e-6, 1e-9, 1e-12}) {
      const double lambda = n * kMu * (1.0 - eps);
      const double p0 = pi0(lambda, n, kMu);
      const double pn = pi_n(lambda, n, kMu);
      const double c = erlang_c(lambda, n, kMu);
      EXPECT_TRUE(std::isfinite(p0));
      EXPECT_GE(p0, 0.0);
      EXPECT_LE(p0, 1.0);
      EXPECT_GE(pn, 0.0);
      EXPECT_LE(pn, 1.0);
      EXPECT_GE(c, 0.0);
      EXPECT_LE(c, 1.0);
      // Waiting time blows up but must remain finite and non-negative.
      const double w = wait_quantile(lambda, n, kMu, 0.95);
      EXPECT_TRUE(std::isfinite(w));
      EXPECT_GE(w, 0.0);
    }
  }
}

TEST(QueueingEdge, NearSaturationViolatesAnyReasonableQos) {
  const int n = 8;
  const double lambda = n * kMu * (1.0 - 1e-9);
  EXPECT_FALSE(qos_satisfied(lambda, n, kMu, /*t_d=*/10.0, /*r=*/0.95));
}

TEST(QueueingEdge, SingleServerMatchesMm1ClosedForms) {
  // For N = 1 the system is M/M/1: P(wait) = rho, E[W] = rho/(mu - lambda).
  const double lambda = 1.2;
  const double r = lambda / kMu;
  EXPECT_NEAR(erlang_c(lambda, 1, kMu), r, 1e-12);
  EXPECT_NEAR(mean_wait(lambda, 1, kMu), r / (kMu - lambda), 1e-12);
  EXPECT_NEAR(pi0(lambda, 1, kMu), 1.0 - r, 1e-12);
}

TEST(QueueingEdge, ZeroArrivalRateIsRejected) {
  // V_u = 0: the discriminant requires lambda > 0 (an idle service has no
  // operating point; callers special-case it before the math).
  EXPECT_THROW((void)rho(0.0, 4, kMu), amoeba::ContractError);
  EXPECT_THROW((void)wait_quantile(0.0, 4, kMu, 0.95), amoeba::ContractError);
  EXPECT_THROW((void)latency_quantile(0.0, 4, kMu, 0.95),
               amoeba::ContractError);
}

TEST(QueueingEdge, NonPositiveServiceRateIsRejected) {
  for (const double mu : {0.0, -1.0, -1e-300}) {
    EXPECT_THROW((void)rho(1.0, 4, mu), amoeba::ContractError);
    EXPECT_THROW((void)qos_satisfied(1.0, 4, mu, 1.0, 0.95),
                 amoeba::ContractError);
    EXPECT_THROW((void)min_servers(1.0, mu, 1.0, 0.95),
                 amoeba::ContractError);
  }
}

TEST(QueueingEdge, NonPositiveServerCountIsRejected) {
  EXPECT_THROW((void)rho(1.0, 0, kMu), amoeba::ContractError);
  EXPECT_THROW((void)rho(1.0, -3, kMu), amoeba::ContractError);
}

TEST(QueueingEdge, MaxArrivalRateStaysInsideStabilityRegion) {
  const int n = 4;
  const auto lam = max_arrival_rate(n, kMu, /*t_d=*/1.2, /*r=*/0.95);
  ASSERT_TRUE(lam.has_value());
  EXPECT_LT(*lam, n * kMu);
  EXPECT_TRUE(qos_satisfied(*lam * (1.0 - 1e-6), n, kMu, 1.2, 0.95));
}

TEST(QueueingEdge, TightTargetBelowServiceTimeHasNoSolution) {
  // T_D <= 1/mu: even an empty system misses the target.
  EXPECT_EQ(eq5_lambda(4, kMu, /*t_d=*/0.4, /*r=*/0.95), std::nullopt);
  EXPECT_EQ(min_servers(1.0, kMu, /*t_d=*/0.4, /*r=*/0.95), std::nullopt);
  EXPECT_EQ(max_arrival_rate(4, kMu, /*t_d=*/0.4, /*r=*/0.95), std::nullopt);
}

// --- Eq. 7 prewarm-count boundaries ---------------------------------------

TEST(PrewarmEdge, ExactIntegerProductsSitOnTheBoundary) {
  PrewarmPolicy policy;
  policy.headroom = 1.0;
  policy.min_containers = 0;
  // Eq. 7: n = ceil(V_u * QoS_t). V_u * QoS_t = 4 exactly -> n = 4 (the
  // inequality (n-1)/QoS_t < V_u <= n/QoS_t is tight on the right).
  EXPECT_EQ(policy.containers_for(8.0, 0.5), 4);
  EXPECT_EQ(policy.containers_for(4.0, 1.0), 4);
  // Nudging the load infinitesimally above the boundary adds a container.
  EXPECT_EQ(policy.containers_for(8.0 + 1e-9, 0.5), 5);
  // Just below stays at n.
  EXPECT_EQ(policy.containers_for(8.0 - 1e-9, 0.5), 4);
}

TEST(PrewarmEdge, ZeroLoadWarmsOnlyTheFloor) {
  PrewarmPolicy policy;
  policy.headroom = 1.0;
  policy.min_containers = 0;
  EXPECT_EQ(policy.containers_for(0.0, 0.5), 0);
  policy.min_containers = 2;
  EXPECT_EQ(policy.containers_for(0.0, 0.5), 2);
}

TEST(PrewarmEdge, HeadroomScalesBeforeCeiling) {
  PrewarmPolicy policy;
  policy.headroom = 1.25;
  policy.min_containers = 0;
  // ceil(8 * 0.5 * 1.25) = ceil(5) = 5 — exact product with headroom.
  EXPECT_EQ(policy.containers_for(8.0, 0.5), 5);
}

TEST(PrewarmEdge, ClampsToConfiguredRange) {
  PrewarmPolicy policy;
  policy.headroom = 1.0;
  policy.min_containers = 1;
  policy.max_containers = 3;
  EXPECT_EQ(policy.containers_for(100.0, 1.0), 3);
  EXPECT_EQ(policy.containers_for(1e-9, 1.0), 1);
}

TEST(PrewarmEdge, RejectsInvalidParameters) {
  PrewarmPolicy policy;
  EXPECT_THROW((void)policy.containers_for(-1.0, 0.5), amoeba::ContractError);
  EXPECT_THROW((void)policy.containers_for(1.0, 0.0), amoeba::ContractError);
  policy.headroom = 0.5;
  EXPECT_THROW((void)policy.containers_for(1.0, 0.5), amoeba::ContractError);
}

}  // namespace
}  // namespace amoeba::core::queueing
