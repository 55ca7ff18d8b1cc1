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
      cpu_(engine, profile_.name + "_vm_cpu", spec.cores),
      disk_(engine, profile_.name + "_vm_disk", disk_bps),
      net_(engine, profile_.name + "_vm_net", net_bps) {
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
  if (state_ == VmState::kDraining && in_flight_ == 0) {
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
  ++in_flight_;

  auto rec = std::make_shared<workload::QueryRecord>();
  rec->id = next_query_id_++;
  rec->arrival = engine_.now();
  rec->breakdown.overhead_s = profile_.rpc_overhead_s;

  const double cpu_work =
      profile_.exec.cpu_seconds > 0.0
          ? rng_.lognormal_mean_cv(profile_.exec.cpu_seconds, profile_.cpu_cv)
          : 0.0;
  rec->cpu_work_done = cpu_work;

  auto finish = [this, rec, done = std::move(on_done)]() mutable {
    rec->completion = engine_.now();
    AMOEBA_INVARIANT_MSG(in_flight_ > 0, "completion without an in-flight query");
    --in_flight_;
    done(*rec);
    maybe_finish_drain();
  };

  auto net_phase = [this, rec, bytes = profile_.exec.net_bytes,
                    next = std::move(finish)]() mutable {
    if (bytes <= 0.0) {
      next();
      return;
    }
    const double t0 = engine_.now();
    net_.open(bytes, 0.0, [this, rec, t0, next = std::move(next)]() mutable {
      rec->breakdown.exec_s += engine_.now() - t0;
      next();
    });
  };

  auto io_phase = [this, rec, bytes = profile_.exec.io_bytes,
                   next = std::move(net_phase)]() mutable {
    if (bytes <= 0.0) {
      next();
      return;
    }
    const double t0 = engine_.now();
    disk_.open(bytes, 0.0, [this, rec, t0, next = std::move(next)]() mutable {
      rec->breakdown.exec_s += engine_.now() - t0;
      next();
    });
  };

  auto cpu_phase = [this, rec, cpu_work, next = std::move(io_phase)]() mutable {
    if (cpu_work <= 0.0) {
      next();
      return;
    }
    const double t0 = engine_.now();
    // Each request uses at most one core (a service worker is a thread).
    cpu_.open(cpu_work, 1.0, [this, rec, t0, next = std::move(next)]() mutable {
      rec->breakdown.exec_s += engine_.now() - t0;
      next();
    });
  };

  if (profile_.rpc_overhead_s > 0.0) {
    engine_.schedule_in(profile_.rpc_overhead_s, std::move(cpu_phase));
  } else {
    cpu_phase();
  }
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
