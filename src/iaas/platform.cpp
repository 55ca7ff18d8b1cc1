#include "iaas/platform.hpp"

#include <utility>

#include "obs/profiler.hpp"

namespace amoeba::iaas {

void IaasConfig::validate() const {
  AMOEBA_EXPECTS(disk_bps > 0.0);
  AMOEBA_EXPECTS(net_bps > 0.0);
  AMOEBA_EXPECTS(vm_boot_s >= 0.0);
}

IaasPlatform::IaasPlatform(sim::Engine& engine, IaasConfig cfg, sim::Rng rng)
    : engine_(engine), cfg_(cfg), rng_(rng) {
  cfg_.validate();
}

VirtualMachine& IaasPlatform::register_service(
    const workload::FunctionProfile& profile, VmSpec spec) {
  AMOEBA_PROF_SCOPE(kIaasPool);
  AMOEBA_EXPECTS_VALS(spec.cores > 0.0, spec.cores);
  AMOEBA_EXPECTS_VALS(spec.memory_mb > 0.0, spec.memory_mb);
  if (spec.boot_s < 0.0) spec.boot_s = cfg_.vm_boot_s;
  auto vm = std::make_unique<VirtualMachine>(
      engine_, profile, spec, rng_.fork(vms_.size() + 101), cfg_.disk_bps,
      cfg_.net_bps);
  vm->set_fault_injector(faults_);
  vms_.push_back(std::move(vm));
  return *vms_.back();
}

void IaasPlatform::set_fault_injector(sim::FaultInjector* faults) noexcept {
  faults_ = faults;
  for (const auto& vm : vms_) vm->set_fault_injector(faults);
}

}  // namespace amoeba::iaas
