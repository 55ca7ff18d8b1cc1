// IaaS platform: the owner of a node's per-service VMs.
//
// register_service() creates a service's VM and hands it out; callers boot,
// drain, submit to and account that VirtualMachine directly. The platform
// keeps what every VM shares: the config (boot-time default, disk and NIC
// rates), the per-VM random streams (forked in registration order) and the
// fault injector, which reaches present and future VMs.
#pragma once

#include <memory>
#include <vector>

#include "iaas/vm.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"

namespace amoeba::iaas {

struct IaasConfig {
  double disk_bps = 2.0e9;
  double net_bps = 3.125e9;
  double vm_boot_s = 30.0;  ///< default boot time when a spec omits it

  void validate() const;
};

class IaasPlatform {
 public:
  IaasPlatform(sim::Engine& engine, IaasConfig cfg, sim::Rng rng);

  /// Create the (stopped) VM for a service and return it; the platform owns
  /// it for its own lifetime. The spec needs positive cores and memory; if
  /// `spec.boot_s` is negative it inherits the platform default.
  VirtualMachine& register_service(const workload::FunctionProfile& profile,
                                   VmSpec spec);

  /// Attach the fault injector to every VM, present and future (non-owning;
  /// nullptr disables injection).
  void set_fault_injector(sim::FaultInjector* faults) noexcept;

 private:
  sim::Engine& engine_;
  IaasConfig cfg_;
  sim::Rng rng_;
  std::vector<std::unique_ptr<VirtualMachine>> vms_;  ///< registration order
  sim::FaultInjector* faults_ = nullptr;
};

}  // namespace amoeba::iaas
