#include "core/hybrid_engine.hpp"

#include <gtest/gtest.h>

#include "sim/fault_injector.hpp"

namespace amoeba::core {
namespace {

serverless::PlatformConfig sp_config(double pool_mb = 4096.0) {
  serverless::PlatformConfig cfg;
  cfg.cores = 8.0;
  cfg.pool_memory_mb = pool_mb;
  cfg.disk_bps = 1.0e9;
  cfg.net_bps = 1.0e9;
  cfg.cold_start_mean_s = 0.5;
  cfg.cold_start_cv = 0.0;
  cfg.keep_alive_s = 60.0;
  return cfg;
}

iaas::IaasConfig ip_config() {
  iaas::IaasConfig cfg;
  cfg.vm_boot_s = 5.0;
  return cfg;
}

workload::FunctionProfile service() {
  workload::FunctionProfile p;
  p.name = "svc";
  p.exec = {.cpu_seconds = 0.05, .io_bytes = 0.0, .net_bytes = 0.0};
  p.code_bytes = 1e6;
  p.result_bytes = 1e4;
  p.platform_overhead_s = 0.01;
  p.rpc_overhead_s = 0.002;
  p.memory_mb = 256.0;
  p.cpu_cv = 0.0;
  p.qos_target_s = 0.5;
  p.peak_load_qps = 20.0;
  return p;
}

iaas::VmSpec vm_spec() {
  iaas::VmSpec s;
  s.cores = 2.0;
  s.memory_mb = 2048.0;
  s.boot_s = 5.0;
  return s;
}

struct Fixture {
  sim::Engine engine;
  serverless::ServerlessPlatform sp;
  iaas::IaasPlatform ip;
  HybridExecutionEngine hx;

  explicit Fixture(HybridEngineConfig cfg = {}, double pool_mb = 4096.0,
                   int max_containers = 0)
      : sp(engine, sp_config(pool_mb), sim::Rng(1)),
        ip(engine, ip_config(), sim::Rng(2)),
        hx(engine, sp, ip, service(), vm_spec(), max_containers, cfg,
           sim::Rng(3), /*observer=*/nullptr) {}
};

TEST(HybridEngine, StartsOnIaasAndBuffersUntilBoot) {
  Fixture f;
  EXPECT_EQ(f.hx.route(), DeployMode::kIaas);
  int done = 0;
  // Submit before the VM is ready (boot takes 5 s).
  f.engine.schedule(1.0, [&] {
    f.hx.submit([&](const workload::QueryRecord&) { ++done; });
  });
  f.engine.run_until(3.0);
  EXPECT_EQ(done, 0);  // buffered
  f.engine.run();
  EXPECT_EQ(done, 1);  // flushed after boot
}

TEST(HybridEngine, MirrorsConfiguredFractionToServerless) {
  HybridEngineConfig cfg;
  cfg.mirror_fraction = 0.5;
  Fixture f(cfg);
  int mirrored = 0;
  f.hx.set_mirror_observer([&](const workload::QueryRecord&) { ++mirrored; });
  f.engine.run();  // boot
  for (int i = 0; i < 400; ++i) {
    f.engine.schedule_in(0.01 * i, [&] {
      f.hx.submit([](const workload::QueryRecord&) {});
    });
  }
  f.engine.run();
  EXPECT_NEAR(mirrored, 200, 50);
  EXPECT_EQ(f.hx.mirrored_queries(), static_cast<std::uint64_t>(mirrored));
}

TEST(HybridEngine, ZeroMirrorFractionMirrorsNothing) {
  HybridEngineConfig cfg;
  cfg.mirror_fraction = 0.0;
  Fixture f(cfg);
  f.engine.run();
  for (int i = 0; i < 50; ++i) {
    f.hx.submit([](const workload::QueryRecord&) {});
  }
  f.engine.run();
  EXPECT_EQ(f.hx.mirrored_queries(), 0u);
}

TEST(HybridEngine, SwitchToServerlessPrewarmsBeforeFlip) {
  Fixture f;
  f.engine.run();  // boot VM

  f.hx.switch_to_serverless(10.0);
  EXPECT_TRUE(f.hx.transitioning());
  EXPECT_EQ(f.hx.route(), DeployMode::kIaas);  // not yet flipped
  // Eq. 7: n = ceil(10 * 0.5) = 5 containers requested.
  EXPECT_EQ(f.sp.counts(f.hx.function()).starting, 5);
  f.engine.run();
  EXPECT_EQ(f.hx.route(), DeployMode::kServerless);
  EXPECT_FALSE(f.hx.transitioning());
  EXPECT_EQ(f.hx.switch_aborts(), 0u);
  // The VM was drained and stopped after the flip.
  EXPECT_EQ(f.hx.vm().state(), iaas::VmState::kStopped);
  // Switch event logged with the load.
  ASSERT_EQ(f.hx.switch_events().size(), 1u);
  EXPECT_EQ(f.hx.switch_events()[0].to, DeployMode::kServerless);
  EXPECT_DOUBLE_EQ(f.hx.switch_events()[0].load_qps, 10.0);
}

TEST(HybridEngine, NoPrewarmFlipsImmediately) {
  HybridEngineConfig cfg;
  cfg.enable_prewarm = false;
  Fixture f(cfg);
  f.engine.run();
  f.hx.switch_to_serverless(10.0);
  // Synchronous flip, logged like any completed switch.
  EXPECT_FALSE(f.hx.transitioning());
  EXPECT_EQ(f.hx.route(), DeployMode::kServerless);
  ASSERT_EQ(f.hx.switch_events().size(), 1u);
  EXPECT_DOUBLE_EQ(f.hx.switch_events()[0].load_qps, 10.0);
  EXPECT_EQ(f.sp.counts(f.hx.function()).total(), 0);  // nothing warmed
}

TEST(HybridEngine, SwitchAbortsOnTimeoutWhenPoolFull) {
  HybridEngineConfig cfg;
  cfg.switch_timeout_s = 3.0;
  // Pool with a single container slot, already hogged by another function.
  Fixture f(cfg, 256.0);
  workload::FunctionProfile hog = service();
  hog.name = "hog";
  hog.exec.cpu_seconds = 1000.0;  // never finishes within the test
  const serverless::FunctionId hog_fn = f.sp.register_function(hog);
  f.sp.submit(hog_fn, [](const workload::QueryRecord&) {});
  f.engine.run_until(6.0);  // VM booted, hog busy in the only slot

  f.hx.switch_to_serverless(10.0);
  f.engine.run_until(12.0);
  EXPECT_EQ(f.hx.switch_aborts(), 1u);
  EXPECT_TRUE(f.hx.switch_events().empty());
  EXPECT_EQ(f.hx.route(), DeployMode::kIaas);  // stayed put
  EXPECT_FALSE(f.hx.transitioning());
}

TEST(HybridEngine, SwitchBackToIaasBootsThenRetires) {
  Fixture f;
  f.engine.run_until(6.0);  // VM booted
  f.hx.switch_to_serverless(4.0);
  f.engine.run_until(10.0);  // prewarm done, still inside keep-alive
  ASSERT_EQ(f.hx.route(), DeployMode::kServerless);
  const int warm = f.sp.counts(f.hx.function()).total();
  EXPECT_GT(warm, 0);

  f.hx.switch_to_iaas(4.0);
  EXPECT_TRUE(f.hx.transitioning());
  EXPECT_EQ(f.hx.route(), DeployMode::kServerless);  // until VM ready
  f.engine.run_until(20.0);
  EXPECT_FALSE(f.hx.transitioning());
  EXPECT_EQ(f.hx.switch_aborts(), 0u);
  EXPECT_EQ(f.hx.route(), DeployMode::kIaas);
  EXPECT_TRUE(f.hx.vm().state() == iaas::VmState::kRunning);
  // Containers were retired (idle destroyed immediately).
  EXPECT_EQ(f.sp.counts(f.hx.function()).total(), 0);
  EXPECT_EQ(f.hx.switch_events().size(), 2u);
}

TEST(HybridEngine, ServerlessRouteDeliversQueries) {
  Fixture f;
  f.engine.run_until(6.0);
  f.hx.switch_to_serverless(4.0);
  f.engine.run_until(10.0);
  int done = 0;
  f.hx.submit([&](const workload::QueryRecord&) { ++done; });
  f.engine.run_until(12.0);
  EXPECT_EQ(done, 1);
  EXPECT_EQ(f.sp.stats(f.hx.function()).completed, 1u);
}

TEST(HybridEngine, MaintainWarmTopsUpTheWarmSet) {
  Fixture f;
  f.engine.run_until(6.0);
  f.hx.switch_to_serverless(2.0);
  f.engine.run_until(10.0);
  ASSERT_EQ(f.hx.route(), DeployMode::kServerless);
  const int before = f.sp.counts(f.hx.function()).total();
  // Load grew: Eq. 7 for 16 qps at 0.5 s QoS wants 8 containers.
  f.hx.maintain_warm(16.0);
  EXPECT_EQ(f.sp.counts(f.hx.function()).total(), 8);
  EXPECT_GE(8, before);
}

TEST(HybridEngine, MaintainWarmRespectsCapAndMode) {
  Fixture f({}, 4096.0, /*max_containers=*/3);
  f.engine.run_until(6.0);
  // On IaaS: no-op.
  f.hx.maintain_warm(16.0);
  EXPECT_EQ(f.sp.counts(f.hx.function()).total(), 0);
  f.hx.switch_to_serverless(2.0);
  f.engine.run_until(10.0);
  f.hx.maintain_warm(16.0);
  EXPECT_EQ(f.sp.counts(f.hx.function()).total(), 3);  // capped at n_max
}

TEST(HybridEngine, SwitchWhoseEq7TargetExceedsNmaxCompletesAtNmax) {
  // Eq. 7 asks for ceil(10 * 0.5) = 5 containers, but the platform starts
  // at most n_max = 3: the switch waits for the three it can have.
  Fixture f({}, 4096.0, /*max_containers=*/3);
  f.engine.run_until(6.0);
  f.hx.switch_to_serverless(10.0);
  EXPECT_EQ(f.sp.counts(f.hx.function()).starting, 3);
  f.engine.run_until(10.0);  // the cold starts take 0.5 s
  EXPECT_EQ(f.hx.route(), DeployMode::kServerless);
  EXPECT_FALSE(f.hx.transitioning());
  EXPECT_EQ(f.hx.switch_aborts(), 0u);
  EXPECT_EQ(f.hx.switch_retries(), 0u);
  ASSERT_EQ(f.hx.switch_events().size(), 1u);
  EXPECT_EQ(f.sp.counts(f.hx.function()).total(), 3);
}

TEST(HybridEngine, MaintainWarmNoopWhenPrewarmDisabled) {
  HybridEngineConfig cfg;
  cfg.enable_prewarm = false;
  Fixture f(cfg);
  f.engine.run_until(6.0);
  f.hx.switch_to_serverless(2.0);
  f.engine.run_until(7.0);
  f.hx.maintain_warm(16.0);
  EXPECT_EQ(f.sp.counts(f.hx.function()).total(), 0);
}

TEST(HybridEngine, MirroringFlagGatesShadowTraffic) {
  HybridEngineConfig cfg;
  cfg.mirror_fraction = 1.0;
  Fixture f(cfg);
  f.engine.run_until(6.0);
  EXPECT_TRUE(f.hx.mirroring());
  f.hx.submit([](const workload::QueryRecord&) {});
  EXPECT_EQ(f.hx.mirrored_queries(), 1u);
  f.hx.set_mirroring(false);
  f.hx.submit([](const workload::QueryRecord&) {});
  EXPECT_EQ(f.hx.mirrored_queries(), 1u);  // unchanged
}

TEST(HybridEngine, AvailableContainersUsesHeadroomAndCap) {
  Fixture f({}, 4096.0, /*max_containers=*/10);  // pool = 16 containers
  EXPECT_EQ(f.hx.available_containers(), 10);

  Fixture g;  // fresh fixture without cap
  EXPECT_EQ(g.hx.available_containers(), 16);
}

TEST(HybridEngine, DoubleSwitchThrows) {
  Fixture f;
  f.engine.run();
  f.hx.switch_to_serverless(10.0);
  EXPECT_THROW(f.hx.switch_to_serverless(10.0), ContractError);
  EXPECT_THROW(f.hx.switch_to_iaas(1.0), ContractError);
}

TEST(HybridEngine, SwitchToCurrentModeThrows) {
  Fixture f;
  f.engine.run();
  EXPECT_THROW(f.hx.switch_to_iaas(1.0), ContractError);
  // A negative load is rejected before any switch state changes.
  EXPECT_THROW(f.hx.switch_to_serverless(-1.0), ContractError);
  EXPECT_FALSE(f.hx.transitioning());
}

TEST(HybridEngine, ConfigValidateRejectsBadValues) {
  auto bad = [](auto mutate) {
    HybridEngineConfig cfg;
    mutate(cfg);
    EXPECT_THROW(cfg.validate(), ContractError);
  };
  bad([](HybridEngineConfig& c) { c.mirror_fraction = -0.1; });
  bad([](HybridEngineConfig& c) { c.mirror_fraction = 1.5; });
  bad([](HybridEngineConfig& c) { c.switch_timeout_s = 0.0; });
}

TEST(HybridEngine, TimeoutAbortReleasesWarmSetAndBalancesAccounting) {
  HybridEngineConfig cfg;
  cfg.switch_timeout_s = 3.0;
  // Pool of three slots; "hog" occupies one, svc needs five (Eq. 7) so the
  // prewarm can only ever partially succeed.
  Fixture f(cfg, 768.0);
  workload::FunctionProfile hog = service();
  hog.name = "hog";
  hog.exec.cpu_seconds = 1000.0;  // never finishes within the test
  const serverless::FunctionId hog_fn = f.sp.register_function(hog);
  f.sp.submit(hog_fn, [](const workload::QueryRecord&) {});
  f.engine.run_until(6.0);  // VM booted, hog busy

  f.hx.switch_to_serverless(10.0);
  EXPECT_EQ(f.sp.counts(f.hx.function()).total(), 2);  // partial prewarm only
  f.engine.run_until(9.5);                   // timeout fires at 9.0
  EXPECT_TRUE(f.hx.switch_events().empty());
  EXPECT_EQ(f.hx.route(), DeployMode::kIaas);  // graceful degradation
  EXPECT_FALSE(f.hx.transitioning());
  EXPECT_EQ(f.hx.switch_aborts(), 1u);
  EXPECT_GT(f.hx.switch_retries(), 0u);  // shortfall polls backed off
  // The abort released everything the switch acquired: zero residual warm
  // containers, and the memory integral is flat from here on.
  EXPECT_EQ(f.sp.counts(f.hx.function()).total(), 0);
  const double at_abort = f.sp.memory_mb_seconds(f.hx.function(), f.engine.now());
  f.engine.run_until(20.0);
  EXPECT_DOUBLE_EQ(f.sp.memory_mb_seconds(f.hx.function(), f.engine.now()), at_abort);
  // The VM never went down, so IaaS rent matches a run that never switched.
  EXPECT_TRUE(f.hx.vm().state() == iaas::VmState::kRunning);
  Fixture g(cfg, 768.0);
  g.engine.run_until(20.0);
  EXPECT_DOUBLE_EQ(f.hx.vm().rented_core_seconds(20.0),
                   g.hx.vm().rented_core_seconds(20.0));
}

TEST(HybridEngine, StalePollsAfterAbortAreSupersededByGeneration) {
  HybridEngineConfig cfg;
  cfg.switch_timeout_s = 3.0;
  Fixture f(cfg, 768.0);
  workload::FunctionProfile hog = service();
  hog.name = "hog";
  hog.exec.cpu_seconds = 1000.0;
  const serverless::FunctionId hog_fn = f.sp.register_function(hog);
  f.sp.submit(hog_fn, [](const workload::QueryRecord&) {});
  f.engine.run_until(6.0);

  f.hx.switch_to_serverless(10.0);
  // Backed-off polls may be scheduled past the 9.0 abort; their generation
  // check must drop them rather than re-prewarming or flipping the route.
  f.engine.run_until(30.0);
  EXPECT_EQ(f.sp.counts(f.hx.function()).total(), 0);
  EXPECT_TRUE(f.hx.switch_events().empty());
  EXPECT_EQ(f.hx.route(), DeployMode::kIaas);
  EXPECT_FALSE(f.hx.transitioning());
}

TEST(HybridEngine, TimeoutAbortRestoresPreSwitchRetireState) {
  HybridEngineConfig cfg;
  cfg.switch_timeout_s = 6.0;  // long enough for the 5 s VM boot leg
  Fixture f(cfg, 768.0);
  f.engine.run_until(6.0);
  // Round-trip: serverless and back, which retires svc on the shared pool.
  f.hx.switch_to_serverless(4.0);
  f.engine.run_until(8.0);
  ASSERT_EQ(f.hx.route(), DeployMode::kServerless);
  f.hx.switch_to_iaas(4.0);
  f.engine.run_until(15.0);
  ASSERT_EQ(f.hx.route(), DeployMode::kIaas);
  ASSERT_TRUE(f.sp.retired(f.hx.function()));

  // Fill the pool so the next to-serverless switch cannot complete.
  workload::FunctionProfile hog = service();
  hog.name = "hog";
  hog.exec.cpu_seconds = 1000.0;
  const serverless::FunctionId hog_fn = f.sp.register_function(hog);
  for (int i = 0; i < 3; ++i) {
    f.sp.submit(hog_fn, [](const workload::QueryRecord&) {});
  }
  f.engine.run_until(16.0);

  f.hx.switch_to_serverless(10.0);
  EXPECT_FALSE(f.sp.retired(f.hx.function()));  // unretired for the attempt
  f.engine.run_until(23.0);           // timeout at 22.0
  EXPECT_FALSE(f.hx.transitioning());
  EXPECT_EQ(f.hx.switch_aborts(), 1u);
  EXPECT_EQ(f.hx.switch_events().size(), 2u);  // only the round trip
  // The abort re-retired the service: a leaked unretire would let mirrored
  // samples rebuild warm containers the accounting no longer tracks.
  EXPECT_TRUE(f.sp.retired(f.hx.function()));
  EXPECT_EQ(f.sp.counts(f.hx.function()).total(), 0);
  EXPECT_EQ(f.hx.route(), DeployMode::kIaas);
  // The abort also starts the anti-flap cooldown.
  EXPECT_TRUE(f.hx.in_cooldown());
  f.engine.run_until(32.5);  // cooldown ends at 22.0 + 10.0
  EXPECT_FALSE(f.hx.in_cooldown());
}

TEST(HybridEngine, ToIaasSwitchAbortsAfterBoundedBootRetries) {
  Fixture f;
  f.engine.run_until(6.0);
  f.hx.switch_to_serverless(4.0);
  f.engine.run_until(10.0);
  ASSERT_EQ(f.hx.route(), DeployMode::kServerless);

  sim::FaultConfig fc;
  fc.vm_boot_fail_first_n = 100;  // every boot attempt fails
  sim::FaultInjector faults(fc, sim::Rng(99));
  f.ip.set_fault_injector(&faults);

  f.hx.switch_to_iaas(4.0);
  // Attempts: boot at 10 fails at 15, retries (backed off) fail at 20.25
  // and 25.75; switch_max_retries = 3 then aborts, inside the 30 s timeout.
  f.engine.run_until(26.0);
  EXPECT_EQ(f.hx.switch_events().size(), 1u);  // only the first switch
  EXPECT_EQ(f.hx.route(), DeployMode::kServerless);  // stayed put
  EXPECT_FALSE(f.hx.transitioning());
  EXPECT_EQ(f.hx.vm().state(), iaas::VmState::kStopped);
  EXPECT_EQ(faults.counters().vm_boot_failures, 3u);  // bounded
  EXPECT_EQ(f.hx.switch_retries(), 2u);
  EXPECT_EQ(f.hx.switch_aborts(), 1u);
  EXPECT_TRUE(f.hx.in_cooldown());
  // Graceful degradation, not an outage: the warm set keeps serving.
  EXPECT_GT(f.sp.counts(f.hx.function()).total(), 0);
  int done = 0;
  f.hx.submit([&](const workload::QueryRecord&) { ++done; });
  f.engine.run_until(27.0);
  EXPECT_EQ(done, 1);
}

TEST(HybridEngine, ToIaasTimeoutAbortsStragglingBoot) {
  HybridEngineConfig cfg;
  cfg.switch_timeout_s = 3.0;
  Fixture f(cfg);
  f.engine.run_until(6.0);
  f.hx.switch_to_serverless(4.0);
  f.engine.run_until(10.0);
  ASSERT_EQ(f.hx.route(), DeployMode::kServerless);

  sim::FaultConfig fc;
  fc.vm_straggler_p = 1.0;
  fc.vm_straggler_factor = 10.0;  // 5 s boot becomes 50 s
  sim::FaultInjector faults(fc, sim::Rng(7));
  f.ip.set_fault_injector(&faults);

  f.hx.switch_to_iaas(4.0);
  f.engine.run_until(14.0);  // timeout fires at 13.0, mid-boot
  EXPECT_FALSE(f.hx.transitioning());
  EXPECT_EQ(f.hx.switch_aborts(), 1u);
  EXPECT_EQ(f.hx.route(), DeployMode::kServerless);
  EXPECT_EQ(f.hx.vm().state(), iaas::VmState::kStopped);  // boot aborted
  EXPECT_EQ(faults.counters().vm_stragglers, 1u);
  // The straggler's original boot event (due at 60.0) must be inert.
  f.engine.run();
  EXPECT_EQ(f.hx.vm().state(), iaas::VmState::kStopped);
  EXPECT_EQ(f.hx.route(), DeployMode::kServerless);
}

}  // namespace
}  // namespace amoeba::core
