#include "core/deployment_controller.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/profiler.hpp"

namespace amoeba::core {

const char* to_string(DeployMode m) noexcept {
  switch (m) {
    case DeployMode::kIaas: return "iaas";
    case DeployMode::kServerless: return "serverless";
  }
  return "?";
}

const char* to_string(SwitchDecision d) noexcept {
  switch (d) {
    case SwitchDecision::kStay: return "stay";
    case SwitchDecision::kSwitchToServerless: return "to_serverless";
    case SwitchDecision::kSwitchToIaas: return "to_iaas";
  }
  return "?";
}

void ControllerConfig::validate() const {
  AMOEBA_EXPECTS(to_serverless_margin > 0.0 && to_serverless_margin <= 1.0);
  AMOEBA_EXPECTS(to_iaas_margin > 0.0 && to_iaas_margin <= 1.5);
  AMOEBA_EXPECTS(hysteresis_ticks >= 1);
  AMOEBA_EXPECTS(observed_violation_fraction > 0.0);
}

namespace {

/// Keep saturated-cell sentinels out of the regression: anything past 4x
/// the target rejects the deployment regardless of its exact magnitude.
WeightEstimatorConfig with_feature_cap(WeightEstimatorConfig cfg,
                                       double qos_target_s) {
  if (cfg.feature_cap_s <= 0.0) cfg.feature_cap_s = 4.0 * qos_target_s;
  return cfg;
}

}  // namespace

DeploymentController::DeploymentController(ControllerConfig cfg,
                                           double qos_target_s,
                                           ServiceArtifacts artifacts,
                                           WeightEstimatorConfig estimator_cfg)
    : cfg_(cfg),
      qos_target_s_(qos_target_s),
      artifacts_(std::move(artifacts)),
      estimator_(with_feature_cap(estimator_cfg, qos_target_s),
                 artifacts_.solo_latency_s, artifacts_.alpha_s) {
  cfg_.validate();
  AMOEBA_EXPECTS(qos_target_s > 0.0);
  AMOEBA_EXPECTS_MSG(artifacts_.complete(), "service artifacts incomplete");
}

std::array<double, kNumResources> DeploymentController::external_pressures(
    double load_qps, const std::array<double, kNumResources>& total,
    bool resident) const {
  // The meters see every resident service, including the one under
  // evaluation; its self-pressure is already represented by the surface's
  // load axis, so subtract it to avoid double counting.
  std::array<double, kNumResources> ext = total;
  if (resident) {
    for (std::size_t i = 0; i < kNumResources; ++i) {
      ext[i] = std::max(0.0,
                        ext[i] - artifacts_.pressure_per_qps[i] * load_qps);
    }
  }
  return ext;
}

Evaluation DeploymentController::evaluate(
    double load_qps, const std::array<double, kNumResources>& total_pressures,
    int n_containers, bool resident_on_serverless) const {
  AMOEBA_EXPECTS(load_qps >= 0.0);
  AMOEBA_EXPECTS(n_containers >= 1);
  Evaluation ev;
  ev.external_pressures =
      external_pressures(load_qps, total_pressures, resident_on_serverless);
  for (std::size_t i = 0; i < kNumResources; ++i) {
    ev.features[i] = artifacts_.surfaces[i]->at(ev.external_pressures[i],
                                                load_qps);
  }
  ev.mu = estimator_.mu(ev.features);
  ev.lambda_max = queueing::max_arrival_rate(
      n_containers, ev.mu, qos_target_s_, kQosPercentile);
  return ev;
}

void DeploymentController::observe_latency(
    double load_qps, const std::array<double, kNumResources>& total_pressures,
    double observed_service_s, bool resident_on_serverless) {
  AMOEBA_PROF_SCOPE(kController);
  AMOEBA_EXPECTS_VALS(std::isfinite(load_qps) && load_qps >= 0.0, load_qps);
  AMOEBA_EXPECTS_VALS(
      std::isfinite(observed_service_s) && observed_service_s > 0.0,
      observed_service_s);
  const auto ext = external_pressures(load_qps, total_pressures,
                                      resident_on_serverless);
  Features f{};
  for (std::size_t i = 0; i < kNumResources; ++i) {
    f[i] = artifacts_.surfaces[i]->at(ext[i], load_qps);
  }
  estimator_.observe(f, observed_service_s);
}

SwitchDecision DeploymentController::tick(const ServiceTickInput& input) {
  AMOEBA_PROF_SCOPE(kController);
  AMOEBA_EXPECTS(input.load_qps >= 0.0);
  AMOEBA_EXPECTS(input.available_containers >= 0);
  const int n = std::max(1, input.available_containers);
  const Evaluation ev = evaluate(input.load_qps, input.total_pressures, n,
                                 input.mode == DeployMode::kServerless);
  last_eval_ = ev;

  // Switching back to IaaS takes hysteresis + the VM boot; judge both
  // directions on the anticipated load so the switch back completes before
  // the serverless pool saturates, and a rush already under way does not
  // send the service to serverless first.
  const double rising_load = std::max(input.load_qps,
                                      input.forecast_load_qps);
  const bool serverless_can_hold =
      ev.lambda_max.has_value() &&
      rising_load <= cfg_.to_serverless_margin * *ev.lambda_max;
  const bool serverless_overloaded =
      !ev.lambda_max.has_value() ||
      rising_load > cfg_.to_iaas_margin * *ev.lambda_max;

  if (input.mode == DeployMode::kIaas) {
    votes_to_iaas_ = 0;
    if (serverless_can_hold) {
      votes_to_serverless_ += 1;
    } else {
      votes_to_serverless_ = 0;
    }
    if (votes_to_serverless_ >= cfg_.hysteresis_ticks) {
      votes_to_serverless_ = 0;
      return SwitchDecision::kSwitchToServerless;
    }
    return SwitchDecision::kStay;
  }

  // Serverless mode: model vote plus the observed-latency backstop.
  votes_to_serverless_ = 0;
  const bool observed_violation =
      input.observed_p95.has_value() &&
      *input.observed_p95 > cfg_.observed_violation_fraction * qos_target_s_;
  if (serverless_overloaded || observed_violation) {
    votes_to_iaas_ += 1;
  } else {
    votes_to_iaas_ = 0;
  }
  if (votes_to_iaas_ >= cfg_.hysteresis_ticks) {
    votes_to_iaas_ = 0;
    return SwitchDecision::kSwitchToIaas;
  }
  return SwitchDecision::kStay;
}

void DeploymentController::set_qos_target(double qos_target_s) {
  AMOEBA_EXPECTS_VALS(qos_target_s > 0.0, qos_target_s);
  qos_target_s_ = qos_target_s;
  AMOEBA_ENSURES(qos_target() == qos_target_s);
}

}  // namespace amoeba::core
