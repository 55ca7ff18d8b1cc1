#include "iaas/platform.hpp"

#include <gtest/gtest.h>

namespace amoeba::iaas {
namespace {

workload::FunctionProfile profile(const std::string& name) {
  workload::FunctionProfile p;
  p.name = name;
  p.exec = {.cpu_seconds = 0.05, .io_bytes = 0.0, .net_bytes = 0.0};
  p.rpc_overhead_s = 0.002;
  p.memory_mb = 256.0;
  p.cpu_cv = 0.0;
  p.qos_target_s = 0.5;
  p.peak_load_qps = 10.0;
  return p;
}

IaasConfig config() {
  IaasConfig c;
  c.vm_boot_s = 5.0;
  return c;
}

TEST(IaasPlatform, RegisterAndBootService) {
  sim::Engine e;
  IaasPlatform ip(e, config(), sim::Rng(1));
  VmSpec spec;
  spec.boot_s = -1.0;  // inherit platform default
  VirtualMachine& vm = ip.register_service(profile("a"), spec);
  EXPECT_EQ(vm.profile().name, "a");
  EXPECT_EQ(vm.state(), VmState::kStopped);
  double ready = -1.0;
  vm.boot([&] { ready = e.now(); });
  e.run();
  EXPECT_DOUBLE_EQ(ready, 5.0);  // platform default boot time
  EXPECT_EQ(vm.state(), VmState::kRunning);
}

TEST(IaasPlatform, RegisterRejectsAVmWithoutCoresOrMemory) {
  sim::Engine e;
  IaasPlatform ip(e, config(), sim::Rng(1));
  VmSpec no_cores;
  no_cores.cores = 0.0;
  EXPECT_THROW((void)ip.register_service(profile("a"), no_cores),
               ContractError);
  VmSpec no_memory;
  no_memory.memory_mb = -1.0;
  EXPECT_THROW((void)ip.register_service(profile("a"), no_memory),
               ContractError);
  // Both were refused before a VM existed: the next registration works.
  VirtualMachine& vm = ip.register_service(profile("a"), VmSpec{});
  EXPECT_EQ(vm.state(), VmState::kStopped);
}

TEST(IaasPlatform, IndependentServices) {
  sim::Engine e;
  IaasPlatform ip(e, config(), sim::Rng(2));
  VirtualMachine& a = ip.register_service(profile("a"), VmSpec{});
  VirtualMachine& b = ip.register_service(profile("b"), VmSpec{});
  a.boot([] {});
  e.run();
  EXPECT_EQ(a.state(), VmState::kRunning);
  EXPECT_EQ(b.state(), VmState::kStopped);
  int done = 0;
  a.submit([&](const workload::QueryRecord&) { ++done; });
  e.run();
  EXPECT_EQ(done, 1);
}

TEST(IaasPlatform, AccountingPerService) {
  sim::Engine e;
  IaasPlatform ip(e, config(), sim::Rng(3));
  VmSpec big;
  big.cores = 8.0;
  big.memory_mb = 8192.0;
  big.boot_s = 0.0;  // rent runs from t=0
  VirtualMachine& vm = ip.register_service(profile("a"), big);
  vm.boot([] {});
  e.run();
  e.schedule(10.0, [] {});
  e.run();
  EXPECT_NEAR(vm.rented_core_seconds(10.0), 80.0, 1e-9);
  EXPECT_NEAR(vm.rented_memory_mb_seconds(10.0), 81920.0, 1e-9);
}

}  // namespace
}  // namespace amoeba::iaas
