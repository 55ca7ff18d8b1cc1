#include "core/deployment_controller.hpp"

#include <gtest/gtest.h>

#include <array>
#include <limits>

namespace amoeba::core {
namespace {

constexpr double kL0 = 0.1;

/// Plane surface L(P, V) = L0 + slope_p * P (load-independent service
/// time; queueing is the M/M/N layer's job).
LatencySurface flat_surface(double slope_p) {
  std::vector<double> ps = {0.0, 1.0};
  std::vector<double> vs = {0.0, 1000.0};
  std::vector<double> lat = {kL0, kL0, kL0 + slope_p, kL0 + slope_p};
  return LatencySurface(ps, vs, lat);
}

ServiceArtifacts artifacts(double cpu_slope = 0.2,
                           std::array<double, 3> footprint = {0.0, 0.0,
                                                              0.0}) {
  ServiceArtifacts a;
  a.solo_latency_s = kL0;
  a.alpha_s = 0.0;
  a.surfaces[kCpuDim] = flat_surface(cpu_slope);
  a.surfaces[kIoDim] = flat_surface(0.0);
  a.surfaces[kNetDim] = flat_surface(0.0);
  a.pressure_per_qps = footprint;
  return a;
}

ControllerConfig config() {
  ControllerConfig cfg;
  cfg.hysteresis_ticks = 2;
  cfg.to_serverless_margin = 0.8;
  cfg.to_iaas_margin = 0.95;
  return cfg;
}

ServiceTickInput input(double load, double cpu_pressure = 0.0, int n = 32) {
  ServiceTickInput in;
  in.load_qps = load;
  in.total_pressures = {cpu_pressure, 0.0, 0.0};
  in.available_containers = n;
  return in;
}

/// The same tick for a service resident on serverless.
ServiceTickInput on_serverless(ServiceTickInput in) {
  in.mode = DeployMode::kServerless;
  return in;
}

TEST(Controller, EvaluateComputesMuFromSurfaces) {
  DeploymentController c(config(), 0.5, artifacts());
  const auto ev = c.evaluate(10.0, {0.0, 0.0, 0.0}, 16, false);
  // No contention: service time = L0 + (L0-L0)+... = L0 -> mu = 10.
  EXPECT_NEAR(ev.mu, 10.0, 1e-9);
  ASSERT_TRUE(ev.lambda_max.has_value());
  EXPECT_GT(*ev.lambda_max, 100.0);  // 16 servers at mu=10
  EXPECT_LT(*ev.lambda_max, 160.0);
}

TEST(Controller, PressureReducesLambdaMax) {
  DeploymentController c(config(), 0.5, artifacts(0.3));
  const auto calm = c.evaluate(10.0, {0.0, 0.0, 0.0}, 16, false);
  const auto loud = c.evaluate(10.0, {0.9, 0.0, 0.0}, 16, false);
  ASSERT_TRUE(calm.lambda_max.has_value());
  ASSERT_TRUE(loud.lambda_max.has_value());
  EXPECT_LT(*loud.lambda_max, *calm.lambda_max);
  EXPECT_LT(loud.mu, calm.mu);
}

TEST(Controller, ImpossibleTargetGivesNullLambda) {
  // At P=1 the service time is 2.1 s, past the 0.5 s QoS target.
  DeploymentController c(config(), 0.5, artifacts(2.0));
  const auto ev = c.evaluate(10.0, {1.0, 0.0, 0.0}, 16, false);
  EXPECT_FALSE(ev.lambda_max.has_value());
}

TEST(Controller, SelfPressureSubtractedWhenResident) {
  DeploymentController c(config(), 0.5, artifacts(0.3, {0.01, 0.0, 0.0}));
  // Resident at 20 qps: 0.2 of the measured 0.5 pressure is its own.
  const auto ev = c.evaluate(20.0, {0.5, 0.0, 0.0}, 16, true);
  EXPECT_NEAR(ev.external_pressures[kCpuDim], 0.3, 1e-12);
  const auto non_resident =
      c.evaluate(20.0, {0.5, 0.0, 0.0}, 16, false);
  EXPECT_NEAR(non_resident.external_pressures[kCpuDim], 0.5, 1e-12);
}

TEST(Controller, HysteresisDelaysSwitchToServerless) {
  DeploymentController c(config(), 0.5, artifacts());
  EXPECT_EQ(input(5.0).mode, DeployMode::kIaas);
  EXPECT_EQ(c.tick(input(5.0)), SwitchDecision::kStay);  // vote 1
  EXPECT_EQ(c.tick(input(5.0)), SwitchDecision::kSwitchToServerless);
}

TEST(Controller, VoteResetOnContradictingTick) {
  DeploymentController c(config(), 0.5, artifacts());
  EXPECT_EQ(c.tick(input(5.0)), SwitchDecision::kStay);
  // Load spike interrupts the streak (λmax with n=32, μ=10 is ~300).
  EXPECT_EQ(c.tick(input(500.0)), SwitchDecision::kStay);
  EXPECT_EQ(c.tick(input(5.0)), SwitchDecision::kStay);  // vote 1 again
  EXPECT_EQ(c.tick(input(5.0)), SwitchDecision::kSwitchToServerless);
}

TEST(Controller, SwitchBackWhenOverloaded) {
  DeploymentController c(config(), 0.5, artifacts());
  // n = 4 containers, mu = 10: λmax < 40; load 60 overloads.
  const auto in = on_serverless(input(60.0, 0.0, 4));
  EXPECT_EQ(c.tick(in), SwitchDecision::kStay);
  EXPECT_EQ(c.tick(in), SwitchDecision::kSwitchToIaas);
}

TEST(Controller, ForecastLoadTriggersEarlySwitchBack) {
  // The measured load is still safe, but the forecast (load extrapolated
  // over hysteresis + VM boot) crosses the exit margin: the controller
  // must start the switch back before the pool saturates.
  DeploymentController c(config(), 0.5, artifacts());
  auto in = on_serverless(input(20.0, 0.0, 4));  // λmax ≈ 36, n=4, μ=10
  in.forecast_load_qps = 60.0;
  EXPECT_EQ(c.tick(in), SwitchDecision::kStay);
  EXPECT_EQ(c.tick(in), SwitchDecision::kSwitchToIaas);
}

TEST(Controller, ForecastBelowLoadIsIgnored) {
  DeploymentController c(config(), 0.5, artifacts());
  auto in = on_serverless(input(20.0, 0.0, 4));
  in.forecast_load_qps = 1.0;  // stale/zero forecast must not mask the load
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(c.tick(in), SwitchDecision::kStay);
  }
}

TEST(Controller, RisingForecastWithholdsSwitchToServerless) {
  // On IaaS the to-serverless vote also judges max(load, forecast): a
  // measured load the pool could hold does not move a service whose load
  // is about to outgrow it.
  DeploymentController c(config(), 0.5, artifacts());
  auto in = input(20.0, 0.0, 4);  // λmax ≈ 36 with n=4, μ=10; 20 < 0.8·36
  in.forecast_load_qps = 60.0;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(c.tick(in), SwitchDecision::kStay);
  }
  in.forecast_load_qps = 0.0;  // the rush is over: the measured load decides
  EXPECT_EQ(c.tick(in), SwitchDecision::kStay);  // vote 1
  EXPECT_EQ(c.tick(in), SwitchDecision::kSwitchToServerless);
}

TEST(Controller, ObservedViolationBackstopTriggersSwitch) {
  DeploymentController c(config(), 0.5, artifacts());
  auto in = on_serverless(input(5.0));  // model says fine
  in.observed_p95 = 0.6; // reality disagrees
  EXPECT_EQ(c.tick(in), SwitchDecision::kStay);
  EXPECT_EQ(c.tick(in), SwitchDecision::kSwitchToIaas);
}

TEST(Controller, StableLoadOnServerlessStays) {
  DeploymentController c(config(), 0.5, artifacts());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(c.tick(on_serverless(input(5.0))), SwitchDecision::kStay);
  }
}

TEST(Controller, ObserveLatencyFeedsEstimator) {
  DeploymentController c(config(), 0.5, artifacts());
  for (int i = 0; i < 50; ++i) {
    c.observe_latency(5.0, {0.2 + 0.01 * (i % 5), 0.0, 0.0},
                      0.1 + 0.002 * (i % 7), /*resident_on_serverless=*/false);
  }
  EXPECT_GE(c.estimator().samples(), 50u);
  EXPECT_TRUE(c.estimator().calibrated());
}

TEST(Controller, ObserveLatencyRejectsNonFiniteOrNegativeSamples) {
  DeploymentController c(config(), 0.5, artifacts());
  const std::array<double, kNumResources> p = {0.2, 0.0, 0.0};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(c.observe_latency(-1.0, p, 0.1, false), ContractError);
  EXPECT_THROW(c.observe_latency(nan, p, 0.1, false), ContractError);
  EXPECT_THROW(c.observe_latency(inf, p, 0.1, false), ContractError);
  EXPECT_THROW(c.observe_latency(5.0, p, 0.0, false), ContractError);
  EXPECT_THROW(c.observe_latency(5.0, p, -0.1, false), ContractError);
  EXPECT_THROW(c.observe_latency(5.0, p, nan, false), ContractError);
  EXPECT_THROW(c.observe_latency(5.0, p, inf, false), ContractError);
  EXPECT_EQ(c.estimator().samples(), 0u);  // nothing reached the fit
  c.observe_latency(0.0, p, 0.1, false);  // an idle service still samples
  EXPECT_EQ(c.estimator().samples(), 1u);
}

TEST(Controller, ModeChangeRestartsTheStreak) {
  DeploymentController c(config(), 0.5, artifacts());
  (void)c.tick(input(5.0));  // vote 1 toward serverless
  // A tick in the other mode zeroes the vote it cannot cast...
  (void)c.tick(on_serverless(input(60.0, 0.0, 4)));  // vote 1 toward IaaS
  EXPECT_EQ(c.votes_to_serverless(), 0);
  EXPECT_EQ(c.votes_to_iaas(), 1);
  // ...so each streak restarts from zero.
  EXPECT_EQ(c.tick(input(5.0)), SwitchDecision::kStay);
  EXPECT_EQ(c.votes_to_iaas(), 0);
  EXPECT_EQ(c.tick(input(5.0)), SwitchDecision::kSwitchToServerless);
}

TEST(Controller, ObservedLatencyUsesTheResidentFlag) {
  // A resident sample has the service's own pressure subtracted, so the
  // same measurement is a feature at a lower external pressure.
  DeploymentController resident(config(), 0.5,
                                artifacts(0.3, {0.01, 0.0, 0.0}));
  DeploymentController outside(config(), 0.5,
                               artifacts(0.3, {0.01, 0.0, 0.0}));
  for (int i = 0; i < 50; ++i) {
    const std::array<double, 3> p = {0.3 + 0.01 * (i % 5), 0.0, 0.0};
    const double latency = 0.1 + 0.002 * (i % 7);
    resident.observe_latency(20.0, p, latency, true);
    outside.observe_latency(20.0, p, latency, false);
  }
  ASSERT_TRUE(resident.estimator().calibrated());
  ASSERT_TRUE(outside.estimator().calibrated());
  EXPECT_NE(resident.estimator().weights(), outside.estimator().weights());
}

TEST(Controller, IncompleteArtifactsRejected) {
  ServiceArtifacts bad;
  bad.solo_latency_s = 0.1;
  EXPECT_THROW(DeploymentController(config(), 0.5, bad), ContractError);
}

}  // namespace
}  // namespace amoeba::core
