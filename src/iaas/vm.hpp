// Virtual-machine model for IaaS-based deployment (the Nameko stand-in).
//
// One VM hosts one microservice. While the VM is up it occupies its full
// rented core/memory allocation regardless of load (paper §II-B) — that is
// exactly the waste Amoeba recovers. Queries are served processor-sharing
// across the VM's cores with resident code, so the only fixed per-query
// cost is the small RPC overhead (no auth / code-load / cold-start path):
// a query is the RPC delay then execute (cpu -> io -> net), walked by a
// workload::PhaseRunner (the same walk the serverless platform uses),
// whose live count is the VM's in-flight count for drain-then-stop.
//
// The VM gets dedicated disk/NIC shares at full node rates: the paper's
// IaaS node is provisioned for peak and never the contention bottleneck.
#pragma once

#include <functional>
#include <vector>

#include "sim/engine.hpp"
#include "sim/fair_share.hpp"
#include "sim/fault_injector.hpp"
#include "sim/random.hpp"
#include "workload/function_profile.hpp"
#include "workload/phase_runner.hpp"
#include "workload/query.hpp"

namespace amoeba::iaas {

struct VmSpec {
  double cores = 4.0;
  double memory_mb = 4096.0;
  double boot_s = 30.0;  ///< VM start-up time

  void validate() const;
};

enum class VmState : std::uint8_t { kStopped, kBooting, kRunning, kDraining };

class VirtualMachine {
 public:
  VirtualMachine(sim::Engine& engine, workload::FunctionProfile profile,
                 VmSpec spec, sim::Rng rng, double disk_bps, double net_bps);

  /// Begin booting (from kStopped); `on_ready` fires when kRunning.
  /// Calling while kDraining cancels the drain and returns to kRunning
  /// immediately (on_ready fires via the engine at the current time).
  ///
  /// With a fault injector attached the boot may straggle (inflated boot
  /// time) or fail: a failed boot accrues rent for the full (possibly
  /// inflated) boot window, then the VM returns to kStopped and
  /// `on_failed` fires instead of `on_ready` (no-op if not provided).
  void boot(std::function<void()> on_ready,
            std::function<void()> on_failed = {});

  /// Attach the fault injector (non-owning; nullptr disables injection).
  void set_fault_injector(sim::FaultInjector* faults) noexcept {
    faults_ = faults;
  }

  /// Stop accepting work; transition to kStopped (releasing the rented
  /// resources) once in-flight queries complete. `on_drained(true)` fires
  /// when the VM reaches kStopped (immediately if nothing is in flight);
  /// `on_drained(false)` if a boot() cancels the drain first. The callback
  /// is invoked inline from existing state transitions — no extra
  /// simulation events are scheduled on its behalf.
  void drain_and_stop(std::function<void(bool completed)> on_drained = {});

  /// Serve one query; requires kRunning.
  void submit(workload::QueryCompletionFn on_done);

  [[nodiscard]] VmState state() const noexcept { return state_; }
  [[nodiscard]] const workload::FunctionProfile& profile() const noexcept {
    return profile_;
  }

  /// Monotonic integrals for accounting/utilization (extend to `now`).
  double rented_core_seconds(sim::Time now);
  double rented_memory_mb_seconds(sim::Time now);
  /// Core-seconds of actual compute done by queries (ground-truth busy).
  double busy_core_seconds(sim::Time now);

  [[nodiscard]] std::uint64_t boot_failures() const noexcept {
    return boot_failures_;
  }

 private:
  void advance_accounting(sim::Time now);
  void maybe_finish_drain();
  void notify_drained(bool completed);

  sim::Engine& engine_;
  workload::FunctionProfile profile_;
  VmSpec spec_;
  sim::Rng rng_;
  sim::FairShareResource cpu_;
  sim::FairShareResource disk_;
  sim::FairShareResource net_;
  workload::PhaseRunner runner_;
  VmState state_ = VmState::kStopped;
  std::vector<std::function<void(bool)>> drain_callbacks_;
  std::uint64_t boot_generation_ = 0;  ///< invalidates stale boot events
  std::uint64_t next_query_id_ = 1;
  std::uint64_t boot_failures_ = 0;
  sim::FaultInjector* faults_ = nullptr;

  // Accounting: rented integrals accumulate only while the VM is up.
  sim::Time mark_ = 0.0;
  double rented_core_s_ = 0.0;
  double rented_mb_s_ = 0.0;
};

}  // namespace amoeba::iaas
