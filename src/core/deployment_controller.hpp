// Contention-aware deployment controller — paper §IV.
//
// One controller manages one microservice. Per sample period it:
//   1. looks up the three latency-surface predictions L_i at the platform's
//      current (externally attributed) pressures and the service's load;
//   2. folds them into a per-container capacity μ via Eq. 6 (PCA-calibrated
//      weights, or pessimistic accumulation in the NoM ablation);
//   3. evaluates the M/M/N discriminant (Eq. 5) for the service's QoS
//      target and the containers it could get;
//   4. decides whether to switch, with hysteresis. Co-tenants reach the
//      decision only through the measured pressures P: a resident service
//      that slows the platform lowers the candidate's μ, but no check runs
//      on the residents' own QoS before a switch-in.
//
// The controller holds no deployment mode: the execution engine owns it
// (HybridExecutionEngine::route()), and the runtime passes it in with each
// tick and each heartbeat sample.
#pragma once

#include <array>
#include <optional>

#include "core/profile_data.hpp"
#include "core/queueing.hpp"
#include "core/weight_estimator.hpp"

namespace amoeba::core {

enum class DeployMode : std::uint8_t { kIaas, kServerless };

[[nodiscard]] const char* to_string(DeployMode m) noexcept;

enum class SwitchDecision : std::uint8_t {
  kStay,
  kSwitchToServerless,
  kSwitchToIaas,
};

[[nodiscard]] const char* to_string(SwitchDecision d) noexcept;

struct ControllerConfig {
  /// Switch to serverless only when V_u <= margin · λ_max (safety slack
  /// against estimation error and load drift).
  double to_serverless_margin = 0.80;
  /// Switch back to IaaS when V_u > margin · λ_max.
  double to_iaas_margin = 0.95;
  /// Consecutive agreeing ticks required before acting (hysteresis).
  int hysteresis_ticks = 2;
  /// An observed p95 above this fraction of the QoS target while on
  /// serverless also votes for switching back (model-independent backstop).
  double observed_violation_fraction = 0.98;

  void validate() const;
};

/// What the runtime must tell the controller about a service each tick.
struct ServiceTickInput {
  /// The platform currently serving the service.
  DeployMode mode = DeployMode::kIaas;
  double load_qps = 0.0;
  /// Load anticipated by the time a switch could complete (measured load
  /// extrapolated over hysteresis + VM boot). Both directions judge
  /// max(load_qps, forecast_load_qps): a rising forecast withholds the
  /// switch to serverless and hastens the switch back to IaaS;
  /// <= load_qps means "no forecast".
  double forecast_load_qps = 0.0;
  /// Platform-total pressures from the contention monitor.
  std::array<double, kNumResources> total_pressures{};
  /// Containers the service could use (min of pool headroom and n_max).
  int available_containers = 1;
  /// Recent observed 95%-ile latency on the platform currently serving it
  /// (nullopt when too few samples).
  std::optional<double> observed_p95;
};

/// Introspection of one discriminant evaluation (drives Fig. 15).
struct Evaluation {
  Features features{};            ///< L_i at (P_ext, V_u)
  double mu = 0.0;                ///< Eq. 6
  std::optional<double> lambda_max;  ///< Eq. 5 via robust solver
  std::array<double, kNumResources> external_pressures{};
};

class DeploymentController {
 public:
  /// `qos_target_s` is the service's latency target; artifacts come from
  /// profiling; `estimator_cfg.enable_pca=false` gives Amoeba-NoM.
  DeploymentController(ControllerConfig cfg, double qos_target_s,
                       ServiceArtifacts artifacts,
                       WeightEstimatorConfig estimator_cfg = {});

  /// Heartbeat: an observed service-time sample (queue/cold-start already
  /// excluded) for PCA calibration, taken at the given load and pressures
  /// while the service is (or is not) resident on serverless. The load must
  /// be finite and non-negative, the sample finite and positive.
  void observe_latency(double load_qps,
                       const std::array<double, kNumResources>& total_pressures,
                       double observed_service_s, bool resident_on_serverless);

  /// One control decision.
  [[nodiscard]] SwitchDecision tick(const ServiceTickInput& input);

  /// Pure evaluation of the discriminant at an arbitrary operating point
  /// (used by tick, by tests, and by the Fig. 15 error study).
  [[nodiscard]] Evaluation evaluate(double load_qps,
                                    const std::array<double, kNumResources>&
                                        total_pressures,
                                    int n_containers,
                                    bool resident_on_serverless) const;

  [[nodiscard]] const WeightEstimator& estimator() const noexcept {
    return estimator_;
  }

  /// QoS latency target of the service.
  [[nodiscard]] double qos_target() const noexcept { return qos_target_s_; }

  /// Retarget the service's QoS budget (end-to-end budget decomposition
  /// renormalizes per-stage targets each monitor tick). Takes effect from
  /// the next tick; the estimator's feature cap keeps its construction-time
  /// value so calibration stays comparable across retargets.
  void set_qos_target(double qos_target_s);

  /// The Evaluation computed by the most recent tick() (nullopt before the
  /// first tick). Feeds the decision audit log.
  [[nodiscard]] const std::optional<Evaluation>& last_evaluation()
      const noexcept {
    return last_eval_;
  }

  /// Current hysteresis vote counts (after the most recent tick).
  [[nodiscard]] int votes_to_serverless() const noexcept {
    return votes_to_serverless_;
  }
  [[nodiscard]] int votes_to_iaas() const noexcept { return votes_to_iaas_; }

  [[nodiscard]] const ControllerConfig& config() const noexcept {
    return cfg_;
  }

 private:
  [[nodiscard]] std::array<double, kNumResources> external_pressures(
      double load_qps, const std::array<double, kNumResources>& total,
      bool resident) const;

  ControllerConfig cfg_;
  double qos_target_s_;
  ServiceArtifacts artifacts_;
  WeightEstimator estimator_;
  int votes_to_serverless_ = 0;
  int votes_to_iaas_ = 0;
  std::optional<Evaluation> last_eval_;  ///< introspection for the audit log
};

}  // namespace amoeba::core
