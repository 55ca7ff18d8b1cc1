#include "iaas/vm.hpp"

#include <utility>

#include "obs/profiler.hpp"

namespace amoeba::iaas {

void VmSpec::validate() const {
  AMOEBA_EXPECTS(cores > 0.0);
  AMOEBA_EXPECTS(memory_mb > 0.0);
  AMOEBA_EXPECTS(boot_s >= 0.0);
}

VirtualMachine::VirtualMachine(sim::Engine& engine,
                               workload::FunctionProfile profile, VmSpec spec,
                               sim::Rng rng, double disk_bps, double net_bps)
    : engine_(engine),
      profile_(std::move(profile)),
      spec_(spec),
      rng_(rng),
      cpu_(engine, spec.cores),
      disk_(engine, disk_bps),
      net_(engine, net_bps),
      runner_(engine, [this](workload::PhaseRunner::Query& q) {
        // The runner's live count already dropped: a drain may now finish.
        q.on_done(q.record);
        maybe_finish_drain();
      }) {
  profile_.validate();
  spec_.validate();
  mark_ = engine_.now();
}

void VirtualMachine::advance_accounting(sim::Time now) {
  const double dt = now - mark_;
  AMOEBA_INVARIANT_VALS(dt >= 0.0, now, mark_);
  if (state_ != VmState::kStopped) {
    rented_core_s_ += spec_.cores * dt;
    rented_mb_s_ += spec_.memory_mb * dt;
  }
  mark_ = now;
  // Rented-resource integrals only ever grow while the VM is up.
  AMOEBA_INVARIANT_VALS(rented_core_s_ >= 0.0 && rented_mb_s_ >= 0.0,
                        rented_core_s_, rented_mb_s_);
}

void VirtualMachine::boot(std::function<void()> on_ready,
                          std::function<void()> on_failed) {
  AMOEBA_PROF_SCOPE(kIaasPool);
  AMOEBA_EXPECTS(on_ready != nullptr);
  advance_accounting(engine_.now());
  switch (state_) {
    case VmState::kRunning:
    case VmState::kBooting:
      AMOEBA_EXPECTS_MSG(false, "boot() while already up");
      return;
    case VmState::kDraining:
      // Cancel the drain: the VM never went down.
      state_ = VmState::kRunning;
      notify_drained(false);
      engine_.schedule_in(0.0, std::move(on_ready));
      return;
    case VmState::kStopped:
      break;
  }
  state_ = VmState::kBooting;
  const std::uint64_t generation = ++boot_generation_;
  double boot_s = spec_.boot_s;
  bool boot_fails = false;
  if (faults_ != nullptr) {
    const sim::FaultInjector::BootFault fault = faults_->next_vm_boot();
    boot_fails = fault.fail;
    boot_s *= fault.delay_multiplier;
  }
  engine_.schedule_in(
      boot_s, [this, generation, boot_fails, cb = std::move(on_ready),
               fb = std::move(on_failed)] {
        if (boot_generation_ != generation) return;
        if (state_ != VmState::kBooting) return;
        advance_accounting(engine_.now());
        if (boot_fails) {
          // Rent accrued for the whole failed boot window; release now.
          state_ = VmState::kStopped;
          ++boot_failures_;
          if (fb) fb();
          return;
        }
        state_ = VmState::kRunning;
        cb();
      });
}

void VirtualMachine::drain_and_stop(
    std::function<void(bool completed)> on_drained) {
  AMOEBA_PROF_SCOPE(kIaasPool);
  advance_accounting(engine_.now());
  switch (state_) {
    case VmState::kStopped:
      if (on_drained) on_drained(true);
      return;
    case VmState::kDraining:
      // Join the drain already in progress.
      if (on_drained) drain_callbacks_.push_back(std::move(on_drained));
      return;
    case VmState::kBooting:
      // Abort the boot outright; nothing is in flight.
      ++boot_generation_;
      state_ = VmState::kStopped;
      if (on_drained) on_drained(true);
      return;
    case VmState::kRunning:
      state_ = VmState::kDraining;
      if (on_drained) drain_callbacks_.push_back(std::move(on_drained));
      maybe_finish_drain();
      return;
  }
}

void VirtualMachine::maybe_finish_drain() {
  if (state_ == VmState::kDraining && runner_.live() == 0) {
    advance_accounting(engine_.now());
    state_ = VmState::kStopped;
    notify_drained(true);
  }
}

void VirtualMachine::notify_drained(bool completed) {
  // Move out first: a callback may start a new drain on this VM.
  std::vector<std::function<void(bool)>> cbs = std::move(drain_callbacks_);
  drain_callbacks_.clear();
  for (auto& cb : cbs) cb(completed);
}

void VirtualMachine::submit(workload::QueryCompletionFn on_done) {
  AMOEBA_PROF_SCOPE(kIaasPool);
  AMOEBA_EXPECTS(on_done != nullptr);
  AMOEBA_EXPECTS_MSG(state_ == VmState::kRunning,
                     "submit() requires a running VM");
  workload::PhaseRunner::Query q;
  workload::QueryRecord& rec = q.record;
  rec.id = next_query_id_++;
  rec.arrival = engine_.now();
  rec.breakdown.overhead_s = profile_.rpc_overhead_s;
  rec.cpu_work_done =
      profile_.exec.cpu_seconds > 0.0
          ? rng_.lognormal_mean_cv(profile_.exec.cpu_seconds, profile_.cpu_cv)
          : 0.0;
  // Each request uses at most one core (a service worker is a thread).
  using workload::LatencyBreakdown;
  q.phases = {{
      {&cpu_, rec.cpu_work_done, 1.0, &LatencyBreakdown::exec_s},
      {&disk_, profile_.exec.io_bytes, 0.0, &LatencyBreakdown::exec_s},
      {&net_, profile_.exec.net_bytes, 0.0, &LatencyBreakdown::exec_s},
  }};
  q.on_done = std::move(on_done);
  runner_.start(std::move(q));
}

double VirtualMachine::rented_core_seconds(sim::Time now) {
  advance_accounting(now);
  return rented_core_s_;
}

double VirtualMachine::rented_memory_mb_seconds(sim::Time now) {
  advance_accounting(now);
  return rented_mb_s_;
}

double VirtualMachine::busy_core_seconds(sim::Time now) {
  return cpu_.busy_capacity_seconds(now);
}

}  // namespace amoeba::iaas
