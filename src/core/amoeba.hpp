// Amoeba runtime — the top-level system of paper Fig. 6.
//
// Manages one microservice: wires together its contention-aware deployment
// controller (§IV), its hybrid execution engine (§V) and a multi-resource
// contention monitor (§VI) over one serverless platform and one IaaS
// platform. Per monitor sample period it measures the service's load, asks
// the controller for a decision, and drives the engine's switch protocol.
// Several services on one node are several runtimes over the same two
// platforms (exp::run_shared_node); they see each other only through the
// pressures their monitors measure.
//
// Ablations from the paper's evaluation are configuration, not forks:
//   Amoeba-NoM: estimator.enable_pca = false   (§VII-C)
//   Amoeba-NoP: engine.enable_prewarm = false  (§VII-D)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/contention_monitor.hpp"
#include "core/deployment_controller.hpp"
#include "core/hybrid_engine.hpp"
#include "core/resource_accounting.hpp"
#include "obs/observer.hpp"
#include "stats/percentile.hpp"
#include "stats/rate_estimator.hpp"
#include "stats/timeseries.hpp"

namespace amoeba::core {

struct AmoebaConfig {
  ControllerConfig controller;
  HybridEngineConfig engine;
  ContentionMonitorConfig monitor;
  WeightEstimatorConfig estimator;
  /// Load-measurement window for V_u (seconds).
  double load_window_s = 30.0;
  /// Horizon (seconds) over which rising load is extrapolated; both switch
  /// directions judge the larger of the measured and the extrapolated load
  /// (ServiceTickInput::forecast_load_qps). Should cover hysteresis + VM
  /// boot. 0 disables.
  double load_anticipation_s = 0.0;
  /// Period of the per-service timeline sampler (load, mode, usage — the
  /// Fig. 12/13 data). 0 (the default) follows the monitor sample period;
  /// negative disables timelines; positive is used as given.
  double timeline_period_s = 0.0;
  /// Observability sink (non-owning; nullptr = disabled, zero cost). When
  /// set, every monitor tick appends a DecisionRecord, switch-protocol
  /// phases and query lifecycles become spans, and labeled metrics update.
  /// Recording is pure bookkeeping: it never schedules simulation events or
  /// draws randomness, so enabling it does not change the event-trace hash.
  /// Container lifecycles are traced by the serverless platform, which
  /// callers attach the observer to themselves (exp::SimNode does).
  obs::Observer* observer = nullptr;
  /// Fault injector (non-owning; nullptr = fault-free). The runtime attaches
  /// it to the contention monitor; callers attach it to the platforms
  /// themselves (the scenario layer does all of this from one config).
  sim::FaultInjector* fault_injector = nullptr;
  /// Call-graph stage index when this runtime manages one stage of a DAG
  /// (exp::run_callgraph); -1 for standalone services. Carried into every
  /// DecisionRecord so one audit log disentangles N per-stage control loops.
  int stage_id = -1;
};

/// Per-service timelines for the paper's Fig. 12/13.
struct ServiceTimeline {
  stats::TimeSeries load_qps;
  stats::TimeSeries mode;  ///< 0 = IaaS, 1 = serverless
  stats::TimeSeries cpu_core_seconds;   ///< cumulative
  stats::TimeSeries memory_mb_seconds;  ///< cumulative
};

class AmoebaRuntime {
 public:
  /// The managed service is its profile, its just-enough VM spec, its
  /// profiled artifacts and its n_max (`serverless_max_containers`, 0 =
  /// memory-bounded only). The constructor registers the service on both
  /// platforms and boots its VM; start() begins the control ticks.
  AmoebaRuntime(sim::Engine& engine,
                serverless::ServerlessPlatform& serverless,
                iaas::IaasPlatform& iaas, MeterCalibration calibration,
                const workload::FunctionProfile& profile,
                iaas::VmSpec vm_spec, ServiceArtifacts artifacts,
                int serverless_max_containers, AmoebaConfig cfg,
                sim::Rng rng);

  /// Boot the monitor and begin control ticks.
  void start();
  void stop();

  /// User query entry point.
  void submit(workload::QueryCompletionFn on_done);

  [[nodiscard]] DeploymentController& controller() noexcept {
    return controller_;
  }
  [[nodiscard]] ContentionMonitor& monitor() noexcept { return monitor_; }
  [[nodiscard]] HybridExecutionEngine& execution_engine() noexcept {
    return exec_engine_;
  }

  [[nodiscard]] const std::vector<SwitchEvent>& switch_events() const {
    return exec_engine_.switch_events();
  }
  [[nodiscard]] const ServiceTimeline& timeline() const noexcept {
    return timeline_;
  }

  /// The service's usage across both platforms through `now`.
  [[nodiscard]] ServiceUsage usage(double now) const;

  /// Current measured load of the service (V_u).
  [[nodiscard]] double measured_load() const;

  /// Retarget the service's QoS budget everywhere it is consumed: the
  /// controller's discriminant and the execution engine's warm-set sizing.
  /// Driven by the end-to-end budget decomposer between monitor ticks.
  void set_qos_target(double qos_target_s);

  /// Effective timeline sampling period: the configured value, or the
  /// monitor sample period when the config left it at 0. <= 0 = disabled.
  [[nodiscard]] double timeline_period() const;

 private:
  void on_sample();
  void sample_timelines();

  /// The fields every DecisionRecord of this tick carries.
  [[nodiscard]] obs::DecisionRecord decision_record(
      const char* decision, double load_qps,
      const std::array<double, kNumResources>& total_pressures) const;
  /// Append the tick's DecisionRecord + metrics + trace instants (observer
  /// must be attached).
  void record_decision(const ServiceTickInput& input, SwitchDecision decision);
  /// The platform's completion of the query in `slot`: runtime bookkeeping,
  /// then the caller's callback.
  void on_query_done(std::uint32_t slot, const workload::QueryRecord& rec);
  /// Record one completed user query (lifecycle span + latency metrics).
  void record_query(const workload::QueryRecord& rec, DeployMode platform);
  /// Feed a queue-free service-time sample to the controller's weight
  /// calibration.
  void observe_service_time(const workload::QueryRecord& rec);

  sim::Engine& engine_;
  serverless::ServerlessPlatform& serverless_;
  AmoebaConfig cfg_;
  std::string name_;
  obs::Observer* obs_;
  DeploymentController controller_;
  ContentionMonitor monitor_;
  HybridExecutionEngine exec_engine_;
  stats::RateEstimator load_;
  /// A submitted query until its platform completes it.
  struct PendingQuery {
    DeployMode platform = DeployMode::kIaas;  ///< route at submission
    workload::QueryCompletionFn done;
  };
  /// Queries in flight: a slot table with a free list, so the platform's
  /// completion captures only (this, slot) and a steady day allocates no
  /// wrapper per query.
  std::vector<PendingQuery> queries_;
  std::vector<std::uint32_t> free_queries_;
  stats::SampleSet period_latencies_;  ///< user latencies since last tick
  ServiceTimeline timeline_;
  double prev_tick_load_ = 0.0;  ///< for the load-trend forecast
  bool has_prev_load_ = false;
  std::uint64_t next_query_span_id_ = 1;
  bool started_ = false;
  sim::EventId timeline_event_ = sim::kNoEvent;
};

}  // namespace amoeba::core
