// Hybrid execution engine — paper §V.
//
// Routes each user query to whichever platform currently serves the
// microservice, and implements the switch protocol. A switch has a target
// mode; both directions share one lifecycle:
//
//   begin:  precondition checks, a new generation (stale poll, boot and
//           timeout events compare it and drop themselves), the
//           "switch:to_<mode>" span and a timeout;
//   ack:    to serverless, the warm set of n containers is up (Eq. 7,
//           capped at the service's n_max); to IaaS, the VM is booted;
//   flip:   the route moves to the target and the old platform is released
//           (drain & stop the VM; or retire the service's containers, busy
//           ones first finishing their queries: "releases the resources
//           after all its allocated queries completed");
//   end:    completed after the flip, or aborted (timeout, no capacity,
//           boot retries exhausted) with a cooldown before the next switch.
//
// Amoeba-NoP flips to serverless without waiting for an ack. The engine is
// the only owner of the deployment mode: route() is the platform that
// serves the service, and the runtime reads it for the controller.
//
// While a service runs on IaaS, a configurable fraction of its queries is
// mirrored to the serverless platform; their latencies are the heartbeat
// samples that calibrate the controller's weights before any switch
// happens (paper §III step 1).
#pragma once

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "core/deployment_controller.hpp"  // DeployMode
#include "core/prewarm_policy.hpp"
#include "iaas/platform.hpp"
#include "obs/observer.hpp"
#include "serverless/platform.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"

namespace amoeba::core {

struct HybridEngineConfig {
  PrewarmPolicy prewarm;
  bool enable_prewarm = true;     ///< false = Amoeba-NoP ablation
  double mirror_fraction = 0.08;  ///< IaaS-mode sampling share to serverless
  double switch_timeout_s = 30.0; ///< abort a switch that cannot complete

  void validate() const;
};

struct SwitchEvent {
  double time = 0.0;
  DeployMode to = DeployMode::kIaas;
  double load_qps = 0.0;  ///< load at the moment the switch completed
};

class HybridExecutionEngine {
 public:
  /// Observer for mirrored (shadow) query completions; these are
  /// measurement traffic, never returned to users.
  using MirrorObserver = std::function<void(const workload::QueryRecord&)>;

  /// Register the managed service on both platforms and boot its VM: the
  /// service starts in IaaS mode, and queries that arrive before the VM is
  /// ready wait in the boot buffer. `serverless_max_containers` is the
  /// per-function n_max (0 = memory-bounded only). `observer` is the
  /// observability sink (non-owning; nullptr disables): every
  /// switch-protocol phase becomes a span on "svc:<name>/control" and the
  /// VM boot/drain lifecycle on "svc:<name>/vm".
  HybridExecutionEngine(sim::Engine& engine,
                        serverless::ServerlessPlatform& serverless,
                        iaas::IaasPlatform& iaas,
                        const workload::FunctionProfile& profile,
                        iaas::VmSpec vm_spec, int serverless_max_containers,
                        HybridEngineConfig cfg, sim::Rng rng,
                        obs::Observer* observer);
  // Scheduled events and platform callbacks hold `this`.
  HybridExecutionEngine(const HybridExecutionEngine&) = delete;
  HybridExecutionEngine& operator=(const HybridExecutionEngine&) = delete;

  /// User-facing entry point.
  void submit(workload::QueryCompletionFn on_done);

  /// Begin switching. The switch ends with route() at the target mode, or
  /// aborts (timeout / no capacity) with the route unchanged, a cooldown
  /// and switch_aborts() one higher. Requires load_qps >= 0, no switch in
  /// progress and a route other than the target. Amoeba-NoP's flip
  /// completes inside the call.
  void switch_to_serverless(double load_qps);
  void switch_to_iaas(double load_qps);

  /// The platform serving the service: the deployment mode.
  [[nodiscard]] DeployMode route() const noexcept { return route_; }
  /// The service's handles on the two platforms, from registration.
  [[nodiscard]] serverless::FunctionId function() const noexcept {
    return fn_;
  }
  [[nodiscard]] iaas::VirtualMachine& vm() const noexcept { return vm_; }
  [[nodiscard]] bool transitioning() const noexcept { return switching_; }

  /// True while the post-abort cooldown is active.
  [[nodiscard]] bool in_cooldown() const;

  /// Containers the service could obtain right now: its current ones plus
  /// pool headroom, clamped to its n_max (the M/M/N "n").
  [[nodiscard]] int available_containers() const;

  void set_mirror_observer(MirrorObserver obs) {
    mirror_observer_ = std::move(obs);
  }

  /// Keep the warm set sized to the current load while the service runs
  /// serverless (paper §V-A: the engine "continually monitors the control
  /// signal ... to keep enough warm containers for later queries").
  /// No-op when prewarm is disabled (Amoeba-NoP), off-route or switching.
  void maintain_warm(double load_qps);

  /// Retarget the service's QoS budget: the Eq. 7 warm-set sizing in
  /// maintain_warm and the prewarm poll read the engine's profile copy, so
  /// a budget renormalization must update it here as well as in the
  /// controller (AmoebaRuntime::set_qos_target does both).
  void set_qos_target(double qos_target_s);

  /// Enable/disable the sampling mirror. The runtime turns it off once the
  /// controller's weight estimator is calibrated — the paper's pre-switch
  /// sampling exists to estimate w₀, not to run shadow traffic forever (its
  /// containers would cost real memory).
  void set_mirroring(bool enabled) { mirroring_ = enabled; }
  [[nodiscard]] bool mirroring() const noexcept { return mirroring_; }

  [[nodiscard]] const std::vector<SwitchEvent>& switch_events() const noexcept {
    return switch_events_;
  }
  [[nodiscard]] const HybridEngineConfig& config() const noexcept {
    return cfg_;
  }
  [[nodiscard]] std::uint64_t mirrored_queries() const noexcept {
    return mirrored_;
  }
  [[nodiscard]] std::uint64_t switch_aborts() const noexcept {
    return switch_aborts_;
  }
  [[nodiscard]] std::uint64_t switch_retries() const noexcept {
    return switch_retries_;
  }

 private:
  void flush_boot_buffer();
  /// Boot (and on injected failure, re-boot with backoff, without bound —
  /// the initial deployment must eventually exist) the service's first VM.
  void boot_initial_vm(int attempt);

  /// The shared begin step: checks, target, generation, counter and span.
  /// Returns the switch's generation.
  std::uint64_t begin_switch(DeployMode to, double load_qps);
  /// The ack arrived (Amoeba-NoP awaits none): flip the route to the
  /// target, release the platform the service left, end the switch.
  void flip_route();
  /// The shared terminal step of every switch, completed or aborted.
  /// `extra` is appended to the span end's arguments.
  void end_switch(bool ok, obs::TraceArgs extra = {});
  /// A retry inside the switch: counter, trace instant and metric.
  void note_retry(const char* name, obs::TraceArg arg);
  /// Stale generations are ignored; otherwise the switch aborts, unless a
  /// to-serverless warm set is already up.
  void on_switch_timeout(std::uint64_t generation);

  /// The warm set for `load_qps`: Eq. 7, capped at the service's n_max.
  [[nodiscard]] int warm_set_size(double load_qps) const;
  void poll_prewarm(std::uint64_t generation, int shortfalls);
  /// The warm set the to-serverless ack waits for is up.
  [[nodiscard]] bool warm_set_up() const;
  /// End the "prewarm" span with the `outcome` instant ("ack" or
  /// "switch_abort").
  void end_prewarm(const char* outcome);
  void start_vm_boot(std::uint64_t generation, int attempt);
  void on_vm_ready(std::uint64_t generation);
  void on_vm_boot_failed(std::uint64_t generation, int attempt);
  void abort_to_iaas();

  /// Drain the service's VM, bracketing it in a "vm:drain" span when the
  /// observer is tracing.
  void drain_vm();
  [[nodiscard]] bool trace_on() const {
    return obs_ != nullptr && obs_->trace_on();
  }
  [[nodiscard]] bool metrics_on() const {
    return obs_ != nullptr && obs_->metrics_on();
  }
  void count_switch(const char* outcome);

  sim::Engine& engine_;
  serverless::ServerlessPlatform& serverless_;
  HybridEngineConfig cfg_;
  sim::Rng rng_;
  obs::Observer* obs_;
  workload::FunctionProfile profile_;
  int max_containers_;
  /// Tracer track names of the switch protocol and of the VM lifecycle.
  std::string control_track_;
  std::string vm_track_;
  // Registered in this order, the function first (member order is
  // initialization order).
  serverless::FunctionId fn_;
  iaas::VirtualMachine& vm_;
  DeployMode route_ = DeployMode::kIaas;
  bool mirroring_ = true;
  bool switching_ = false;
  std::uint64_t switch_generation_ = 0;  ///< invalidates stale poll events
  std::deque<workload::QueryCompletionFn> boot_buffer_;  ///< pre-VM-ready
  // In-flight switch bookkeeping (valid while `switching_`):
  DeployMode target_ = DeployMode::kIaas;
  double switch_load_qps_ = 0.0;  ///< load recorded on the switch event
  int needed_ = 0;  ///< to serverless: the warm set the ack waits for
  bool retired_before_switch_ = false;  ///< re-retire on abort
  sim::EventId switch_timeout_ = sim::kNoEvent;
  double cooldown_until_ = 0.0;  ///< no new switches before this time
  MirrorObserver mirror_observer_;
  std::vector<SwitchEvent> switch_events_;
  std::uint64_t mirrored_ = 0;
  std::uint64_t switch_aborts_ = 0;
  std::uint64_t switch_retries_ = 0;
};

}  // namespace amoeba::core
