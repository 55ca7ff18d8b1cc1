#include "stats/rate_estimator.hpp"

#include <gtest/gtest.h>

#include "sim/random.hpp"

namespace amoeba::stats {
namespace {

TEST(RateEstimator, CountsArrivalsInWindow) {
  RateEstimator r(10.0);
  for (int i = 0; i < 20; ++i) r.record(static_cast<double>(i));
  // At t=19.5 the window (9.5, 19.5] holds arrivals 10..19.
  EXPECT_DOUBLE_EQ(r.rate(19.5), 10.0 / 10.0);
}

TEST(RateEstimator, EmptyWindowIsZero) {
  RateEstimator r(5.0);
  EXPECT_DOUBLE_EQ(r.rate(100.0), 0.0);
  r.record(1.0);
  EXPECT_DOUBLE_EQ(r.rate(100.0), 0.0);  // long expired
}

TEST(RateEstimator, PoissonRateRecovered) {
  RateEstimator r(50.0);
  sim::Rng rng(3);
  double t = 0.0;
  const double lambda = 8.0;
  while (t < 200.0) {
    t += rng.exponential(lambda);
    r.record(t);
  }
  EXPECT_NEAR(r.rate(200.0), lambda, 1.0);
}

TEST(RateEstimator, FirstWindowUsesElapsedTimeNotWindowLength) {
  // Regression: a steady 2 qps stream starting at t=0 used to read as
  // 2 * elapsed / window during the whole first window (e.g. 0.2 qps at
  // t=1 with a 10 s window), starving the deployment controller's Eq. 1-5
  // discriminant of load at scenario start.
  RateEstimator r(10.0);
  for (int i = 0; i < 5; ++i) r.record(0.5 * i);  // 2 qps from t=0
  // t=2: window not yet elapsed; 5 arrivals over 2 s of elapsed time.
  EXPECT_NEAR(r.rate(2.0), 5.0 / 2.0, 1e-12);
  for (int i = 5; i < 20; ++i) r.record(0.5 * i);  // continue to t=9.5
  // t=9.5: still warming up; all 20 arrivals over 9.5 s elapsed.
  EXPECT_NEAR(r.rate(9.5), 20.0 / 9.5, 1e-12);
  // From one full window onward the divisor is the window length again
  // (the t=0 arrival ages out exactly at t=10: window is (0, 10]).
  EXPECT_NEAR(r.rate(10.0), 19.0 / 10.0, 1e-12);
  EXPECT_NEAR(r.rate(12.0), 15.0 / 10.0, 1e-12);
}

TEST(RateEstimator, SingleArrivalAtNowFallsBackToWindowDivisor) {
  // Zero elapsed time since the first observation: dividing by elapsed
  // would blow up, so the full window is the (conservative) divisor.
  RateEstimator r(10.0);
  r.record(3.0);
  EXPECT_DOUBLE_EQ(r.rate(3.0), 1.0 / 10.0);
}

TEST(RateEstimator, WarmupDoesNotResurrectAfterIdle) {
  // The warm-up divisor applies only within one window of the FIRST
  // observation; after a long idle gap the estimator reports over the
  // window, not over the gap.
  RateEstimator r(10.0);
  r.record(0.0);
  r.record(100.0);
  r.record(101.0);
  EXPECT_DOUBLE_EQ(r.rate(105.0), 2.0 / 10.0);
}

TEST(RateEstimator, NonMonotoneThrows) {
  RateEstimator r(5.0);
  r.record(2.0);
  EXPECT_THROW(r.record(1.0), ContractError);
}

TEST(RateEstimator, BoundaryArrivalExcludedExactlyAtWindowEdge) {
  RateEstimator r(10.0);
  r.record(0.0);
  EXPECT_DOUBLE_EQ(r.rate(10.0), 0.0);  // (0, 10] excludes t=0
  RateEstimator r2(10.0);
  r2.record(0.001);
  // One arrival in the window, still inside the warm-up divisor.
  EXPECT_DOUBLE_EQ(r2.rate(10.0), 1.0 / (10.0 - 0.001));
}

}  // namespace
}  // namespace amoeba::stats
