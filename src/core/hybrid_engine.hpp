// Hybrid execution engine — paper §V.
//
// Routes each user query to whichever platform currently serves the
// microservice, and implements the switch protocol:
//
//   to serverless: prewarm n containers (Eq. 7) -> wait for the warm ack
//                  -> flip the route -> drain & stop the VM;
//   to IaaS:       boot the VM -> wait for the ready ack -> flip the route
//                  -> retire the service's containers (busy ones finish
//                  first: "releases the resources after all its allocated
//                  queries completed").
//
// While a service runs on IaaS, a configurable fraction of its queries is
// mirrored to the serverless platform; their latencies are the heartbeat
// samples that calibrate the controller's weights before any switch
// happens (paper §III step 1).
#pragma once

#include <deque>
#include <functional>
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
  double prewarm_poll_s = 0.25;   ///< ack polling interval during switches
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

  /// Begin switching. `on_complete(true)` fires once the flip happened;
  /// `on_complete(false)` if the switch aborted (timeout / no capacity).
  /// Requires no switch in progress.
  void switch_to_serverless(double load_qps,
                            std::function<void(bool)> on_complete);
  void switch_to_iaas(double load_qps, std::function<void(bool)> on_complete);

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
  void poll_prewarm(int needed, std::uint64_t generation, int shortfalls);
  void complete_to_serverless(int needed);
  /// Timeout abort of an in-flight to-serverless switch: release the
  /// prewarmed warm set, restore the pre-switch retire state, start the
  /// cooldown, and report failure. Stale generations are ignored.
  void on_serverless_switch_timeout(int needed, std::uint64_t generation);
  void start_vm_boot(std::uint64_t generation, int attempt);
  void on_vm_ready(std::uint64_t generation);
  void on_vm_boot_failed(std::uint64_t generation, int attempt);
  void abort_to_iaas();
  /// Pop the stored completion callback and finish the switch bookkeeping
  /// shared by every terminal path (cooldown on failure).
  void finish_switch(bool ok);

  /// Drain the service's VM, bracketing it in a "vm:drain" span when the
  /// observer is tracing.
  void drain_vm();
  [[nodiscard]] bool trace_on() const {
    return obs_ != nullptr && obs_->trace_on();
  }
  void count_switch(const char* to, const char* outcome);

  sim::Engine& engine_;
  serverless::ServerlessPlatform& serverless_;
  HybridEngineConfig cfg_;
  sim::Rng rng_;
  obs::Observer* obs_;
  workload::FunctionProfile profile_;
  int max_containers_;
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
  double switch_load_qps_ = 0.0;  ///< load recorded on the switch event
  bool retired_before_switch_ = false;  ///< re-retire on abort
  sim::EventId switch_timeout_ = sim::kNoEvent;
  std::function<void(bool)> switch_done_;
  double cooldown_until_ = 0.0;  ///< no new switches before this time
  MirrorObserver mirror_observer_;
  std::vector<SwitchEvent> switch_events_;
  std::uint64_t mirrored_ = 0;
  std::uint64_t switch_aborts_ = 0;
  std::uint64_t switch_retries_ = 0;
};

}  // namespace amoeba::core
