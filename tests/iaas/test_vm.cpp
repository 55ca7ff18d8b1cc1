#include "iaas/vm.hpp"

#include <gtest/gtest.h>

#include "sim/fault_injector.hpp"

namespace amoeba::iaas {
namespace {

workload::FunctionProfile service_profile() {
  workload::FunctionProfile p;
  p.name = "svc";
  p.exec = {.cpu_seconds = 0.1, .io_bytes = 0.0, .net_bytes = 0.0};
  p.rpc_overhead_s = 0.002;
  p.platform_overhead_s = 0.01;  // serverless-only; VM must not pay it
  p.code_bytes = 1e6;            // serverless-only
  p.memory_mb = 256.0;
  p.cpu_cv = 0.0;
  p.qos_target_s = 0.5;
  p.peak_load_qps = 10.0;
  return p;
}

VmSpec spec2() {
  VmSpec s;
  s.cores = 2.0;
  s.memory_mb = 2048.0;
  s.boot_s = 10.0;
  return s;
}

TEST(Vm, BootTransitionsToRunningAfterDelay) {
  sim::Engine e;
  VirtualMachine vm(e, service_profile(), spec2(), sim::Rng(1), 1e9, 1e9);
  EXPECT_EQ(vm.state(), VmState::kStopped);
  double ready_at = -1.0;
  vm.boot([&] { ready_at = e.now(); });
  EXPECT_EQ(vm.state(), VmState::kBooting);
  e.run();
  EXPECT_EQ(vm.state(), VmState::kRunning);
  EXPECT_DOUBLE_EQ(ready_at, 10.0);
}

TEST(Vm, SubmitRequiresRunning) {
  sim::Engine e;
  VirtualMachine vm(e, service_profile(), spec2(), sim::Rng(2), 1e9, 1e9);
  EXPECT_THROW(vm.submit([](const workload::QueryRecord&) {}), ContractError);
}

TEST(Vm, QueryPaysOnlyRpcOverhead) {
  sim::Engine e;
  VirtualMachine vm(e, service_profile(), spec2(), sim::Rng(3), 1e9, 1e9);
  vm.boot([] {});
  e.run();
  workload::QueryRecord rec;
  vm.submit([&](const workload::QueryRecord& r) { rec = r; });
  e.run();
  EXPECT_NEAR(rec.latency(), 0.002 + 0.1, 1e-9);
  EXPECT_DOUBLE_EQ(rec.breakdown.code_load_s, 0.0);
  EXPECT_DOUBLE_EQ(rec.breakdown.cold_start_s, 0.0);
  EXPECT_FALSE(rec.cold);
}

TEST(Vm, ProcessorSharingAcrossCores) {
  sim::Engine e;
  VirtualMachine vm(e, service_profile(), spec2(), sim::Rng(4), 1e9, 1e9);
  vm.boot([] {});
  e.run();
  // 4 concurrent queries on 2 cores: each runs at rate 0.5 -> exec 0.2 s.
  std::vector<double> latencies;
  for (int i = 0; i < 4; ++i) {
    vm.submit([&](const workload::QueryRecord& r) {
      latencies.push_back(r.latency());
    });
  }
  e.run();
  ASSERT_EQ(latencies.size(), 4u);
  for (double l : latencies) EXPECT_NEAR(l, 0.002 + 0.2, 1e-9);
}

TEST(Vm, RentedResourcesAccrueWhileUpIncludingIdle) {
  sim::Engine e;
  VirtualMachine vm(e, service_profile(), spec2(), sim::Rng(5), 1e9, 1e9);
  vm.boot([] {});
  e.run();
  e.schedule(100.0, [] {});
  e.run();
  // Booting (10 s) + idle running (90 s): full rent the whole time.
  EXPECT_NEAR(vm.rented_core_seconds(100.0), 2.0 * 100.0, 1e-9);
  EXPECT_NEAR(vm.rented_memory_mb_seconds(100.0), 2048.0 * 100.0, 1e-9);
  // But almost no actual compute happened.
  EXPECT_NEAR(vm.busy_core_seconds(100.0), 0.0, 1e-9);
}

TEST(Vm, DrainAndStopWaitsForInFlight) {
  sim::Engine e;
  VirtualMachine vm(e, service_profile(), spec2(), sim::Rng(6), 1e9, 1e9);
  vm.boot([] {});
  e.run();
  bool completed = false;
  vm.submit([&](const workload::QueryRecord&) { completed = true; });
  vm.drain_and_stop();
  EXPECT_EQ(vm.state(), VmState::kDraining);
  e.run();
  EXPECT_TRUE(completed);
  EXPECT_EQ(vm.state(), VmState::kStopped);
}

TEST(Vm, DrainWithNoInFlightStopsImmediately) {
  sim::Engine e;
  VirtualMachine vm(e, service_profile(), spec2(), sim::Rng(7), 1e9, 1e9);
  vm.boot([] {});
  e.run();
  vm.drain_and_stop();
  EXPECT_EQ(vm.state(), VmState::kStopped);
}

TEST(Vm, RentStopsAfterShutdown) {
  sim::Engine e;
  VirtualMachine vm(e, service_profile(), spec2(), sim::Rng(8), 1e9, 1e9);
  vm.boot([] {});
  e.run();  // running at t=10
  e.schedule(20.0, [&] { vm.drain_and_stop(); });
  e.schedule(100.0, [] {});
  e.run();
  EXPECT_NEAR(vm.rented_core_seconds(100.0), 2.0 * 20.0, 1e-9);
}

TEST(Vm, BootDuringDrainCancelsShutdown) {
  sim::Engine e;
  VirtualMachine vm(e, service_profile(), spec2(), sim::Rng(9), 1e9, 1e9);
  vm.boot([] {});
  e.run();
  bool query_done = false;
  vm.submit([&](const workload::QueryRecord&) { query_done = true; });
  vm.drain_and_stop();
  ASSERT_EQ(vm.state(), VmState::kDraining);
  bool reready = false;
  vm.boot([&] { reready = true; });
  EXPECT_EQ(vm.state(), VmState::kRunning);  // instant: never went down
  e.run();
  EXPECT_TRUE(reready);
  EXPECT_TRUE(query_done);
  EXPECT_EQ(vm.state(), VmState::kRunning);
}

TEST(Vm, DrainDuringBootAborts) {
  sim::Engine e;
  VirtualMachine vm(e, service_profile(), spec2(), sim::Rng(10), 1e9, 1e9);
  bool ready = false;
  vm.boot([&] { ready = true; });
  vm.drain_and_stop();
  EXPECT_EQ(vm.state(), VmState::kStopped);
  e.run();
  EXPECT_FALSE(ready);  // stale boot event must not fire the callback
}

TEST(Vm, RebootAfterStopWorks) {
  sim::Engine e;
  VirtualMachine vm(e, service_profile(), spec2(), sim::Rng(11), 1e9, 1e9);
  vm.boot([] {});
  e.run();
  vm.drain_and_stop();
  EXPECT_EQ(vm.state(), VmState::kStopped);
  vm.boot([] {});
  e.run();
  EXPECT_EQ(vm.state(), VmState::kRunning);
}

TEST(Vm, DoubleBootThrows) {
  sim::Engine e;
  VirtualMachine vm(e, service_profile(), spec2(), sim::Rng(12), 1e9, 1e9);
  vm.boot([] {});
  EXPECT_THROW(vm.boot([] {}), ContractError);
}

TEST(Vm, UptimeExcludesStoppedPeriods) {
  sim::Engine e;
  VirtualMachine vm(e, service_profile(), spec2(), sim::Rng(13), 1e9, 1e9);
  vm.boot([] {});
  e.run();
  e.schedule(50.0, [&] { vm.drain_and_stop(); });
  e.schedule(80.0, [&] { vm.boot([] {}); });
  e.schedule(100.0, [] {});
  e.run();
  // Rent accrues only while the VM is up: 50 s before the drain, 20 s after
  // the reboot.
  EXPECT_NEAR(vm.rented_core_seconds(100.0), spec2().cores * (50.0 + 20.0),
              1e-9);
}

TEST(Vm, InjectedBootFailureReturnsToStoppedAndPaysRent) {
  sim::Engine e;
  VirtualMachine vm(e, service_profile(), spec2(), sim::Rng(11), 1e9, 1e9);
  sim::FaultConfig fc;
  fc.vm_boot_fail_first_n = 1;
  sim::FaultInjector faults(fc, sim::Rng(4));
  vm.set_fault_injector(&faults);

  bool ready = false;
  bool failed = false;
  vm.boot([&] { ready = true; }, [&] { failed = true; });
  e.run();
  EXPECT_FALSE(ready);
  EXPECT_TRUE(failed);
  EXPECT_EQ(vm.state(), VmState::kStopped);
  EXPECT_EQ(vm.boot_failures(), 1u);
  // The failed boot window is still billed (2 cores for 10 s).
  EXPECT_NEAR(vm.rented_core_seconds(e.now()), 20.0, 1e-9);
  // A retry (fail-first budget exhausted) succeeds.
  vm.boot([&] { ready = true; });
  e.run();
  EXPECT_TRUE(ready);
  EXPECT_EQ(vm.state(), VmState::kRunning);
}

TEST(Vm, InjectedStragglerInflatesBootTime) {
  sim::Engine e;
  VirtualMachine vm(e, service_profile(), spec2(), sim::Rng(12), 1e9, 1e9);
  sim::FaultConfig fc;
  fc.vm_straggler_p = 1.0;
  fc.vm_straggler_factor = 3.0;
  sim::FaultInjector faults(fc, sim::Rng(5));
  vm.set_fault_injector(&faults);

  double ready_at = -1.0;
  vm.boot([&] { ready_at = e.now(); });
  e.run();
  EXPECT_DOUBLE_EQ(ready_at, 30.0);  // 10 s boot stretched 3x
  EXPECT_EQ(faults.counters().vm_stragglers, 1u);
  EXPECT_EQ(vm.boot_failures(), 0u);
}

TEST(Vm, DrainDuringFaultyBootSupersedesFailureCallback) {
  sim::Engine e;
  VirtualMachine vm(e, service_profile(), spec2(), sim::Rng(13), 1e9, 1e9);
  sim::FaultConfig fc;
  fc.vm_boot_fail_first_n = 10;
  sim::FaultInjector faults(fc, sim::Rng(6));
  vm.set_fault_injector(&faults);

  bool failed = false;
  vm.boot([] {}, [&] { failed = true; });
  e.run_until(5.0);
  vm.drain_and_stop();  // abort the doomed boot before it reports failure
  EXPECT_EQ(vm.state(), VmState::kStopped);
  e.run();
  EXPECT_FALSE(failed);  // superseded boot event stayed inert
  EXPECT_EQ(vm.boot_failures(), 0u);
}

}  // namespace
}  // namespace amoeba::iaas
