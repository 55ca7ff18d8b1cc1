// Closed-loop tests of the full Amoeba runtime: monitor ticks drive the
// controller, which drives the hybrid engine's switch protocol.
#include "core/amoeba.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "obs/exporters.hpp"
#include "obs/json.hpp"
#include "workload/load_generator.hpp"
#include "workload/meters.hpp"

namespace amoeba::core {
namespace {

serverless::PlatformConfig sp_config() {
  serverless::PlatformConfig cfg;
  cfg.cores = 8.0;
  cfg.pool_memory_mb = 8192.0;  // 32 containers
  cfg.disk_bps = 1.0e9;
  cfg.net_bps = 1.0e9;
  cfg.cold_start_mean_s = 0.5;
  cfg.cold_start_cv = 0.0;
  cfg.keep_alive_s = 60.0;
  return cfg;
}

iaas::IaasConfig ip_config() {
  iaas::IaasConfig cfg;
  cfg.vm_boot_s = 3.0;
  return cfg;
}

workload::FunctionProfile service() {
  workload::FunctionProfile p;
  p.name = "svc";
  p.exec = {.cpu_seconds = 0.08, .io_bytes = 0.0, .net_bytes = 0.0};
  p.code_bytes = 1e6;
  p.result_bytes = 1e4;
  p.platform_overhead_s = 0.01;
  p.rpc_overhead_s = 0.002;
  p.memory_mb = 256.0;
  p.cpu_cv = 0.05;
  p.qos_target_s = 0.5;
  p.peak_load_qps = 40.0;
  return p;
}

iaas::VmSpec vm_spec() {
  // Provisioned for the service's peak (the paper's premise): 6 cores at
  // ~12 queries/s/core comfortably hold the scenarios' highest loads.
  iaas::VmSpec s;
  s.cores = 6.0;
  s.memory_mb = 2560.0;
  s.boot_s = 3.0;
  return s;
}

MeterCalibration synthetic_calibration() {
  const auto cfg = sp_config();
  MeterCalibration cal;
  for (std::size_t d = 0; d < kNumResources; ++d) {
    const auto p = workload::meter_profile(workload::kAllMeters[d]);
    const double base = p.ideal_serverless_latency(cfg.disk_bps, cfg.net_bps);
    cal.curves[d] = MeterCurve(
        {{0.02, base}, {0.5, base * 1.5}, {0.95, base * 4.0}});
  }
  return cal;
}

ServiceArtifacts artifacts() {
  // Solo serverless latency of `service()`: 0.01 + 0.001 + 0.08 + ~0.00001.
  const double l0 = 0.0915;
  ServiceArtifacts a;
  a.solo_latency_s = l0;
  a.alpha_s = 0.0;
  std::vector<double> ps = {0.0, 1.0};
  std::vector<double> vs = {0.0, 100.0};
  for (std::size_t d = 0; d < kNumResources; ++d) {
    const double slope = d == kCpuDim ? 0.15 : 0.02;
    a.surfaces[d] = LatencySurface(
        ps, vs, {l0, l0, l0 + slope, l0 + slope});
  }
  a.pressure_per_qps = {0.08 / 8.0, 0.0, 0.0};  // cpu-s per query / cores
  return a;
}

AmoebaConfig runtime_config() {
  AmoebaConfig cfg;
  cfg.monitor.sample_period_s = 2.0;
  cfg.controller.hysteresis_ticks = 2;
  cfg.engine.mirror_fraction = 0.10;
  cfg.load_window_s = 10.0;
  return cfg;
}

struct Fixture {
  sim::Engine engine;
  serverless::ServerlessPlatform sp;
  iaas::IaasPlatform ip;
  AmoebaRuntime runtime;

  explicit Fixture(AmoebaConfig cfg = runtime_config(),
                   int max_containers = 0)
      : sp(engine, sp_config(), sim::Rng(1)),
        ip(engine, ip_config(), sim::Rng(2)),
        runtime(engine, sp, ip, synthetic_calibration(), service(), vm_spec(),
                artifacts(), max_containers, cfg, sim::Rng(3)) {
    // Before any event runs, so the platform traces every container.
    sp.set_observer(cfg.observer);
  }
};

TEST(AmoebaRuntime, LowLoadSwitchesToServerless) {
  Fixture f;
  f.runtime.start();
  workload::ConstantLoadGenerator gen(f.engine, sim::Rng(4), 4.0, [&] {
    f.runtime.submit([](const workload::QueryRecord&) {});
  });
  gen.start();
  f.engine.run_until(60.0);
  gen.stop();
  f.runtime.stop();

  EXPECT_EQ(f.runtime.execution_engine().route(), DeployMode::kServerless);
  ASSERT_GE(f.runtime.switch_events().size(), 1u);
  EXPECT_EQ(f.runtime.switch_events()[0].to, DeployMode::kServerless);
  // IaaS resources were released after the switch.
  EXPECT_EQ(f.runtime.execution_engine().vm().state(), iaas::VmState::kStopped);
}

TEST(AmoebaRuntime, HighLoadStaysOnIaas) {
  // Cap the service at 4 containers: λmax ≈ 4 × 10.9 ≈ 43 > raw capacity
  // check; at 80 QPS the discriminant must keep it on IaaS.
  Fixture f(runtime_config(), /*max_containers=*/4);
  f.runtime.start();
  workload::ConstantLoadGenerator gen(f.engine, sim::Rng(5), 80.0, [&] {
    f.runtime.submit([](const workload::QueryRecord&) {});
  });
  gen.start();
  f.engine.run_until(60.0);
  gen.stop();
  f.runtime.stop();

  EXPECT_EQ(f.runtime.execution_engine().route(), DeployMode::kIaas);
  EXPECT_TRUE(f.runtime.switch_events().empty());
}

TEST(AmoebaRuntime, LoadSwingSwitchesThereAndBack) {
  Fixture f(runtime_config(), /*max_containers=*/4);
  f.runtime.start();
  auto gen = std::make_unique<workload::ConstantLoadGenerator>(
      f.engine, sim::Rng(6), 4.0, [&] {
        f.runtime.submit([](const workload::QueryRecord&) {});
      });
  gen->start();
  // Low load until t=60, then a surge far beyond 4 containers' capacity.
  f.engine.schedule(60.0, [&] { gen->set_rate(80.0); });
  f.engine.run_until(140.0);
  gen->stop();
  f.runtime.stop();

  const auto& events = f.runtime.switch_events();
  ASSERT_GE(events.size(), 2u);
  EXPECT_EQ(events[0].to, DeployMode::kServerless);
  EXPECT_EQ(events[1].to, DeployMode::kIaas);
  EXPECT_EQ(f.runtime.execution_engine().route(), DeployMode::kIaas);
  EXPECT_EQ(f.runtime.execution_engine().vm().state(),
            iaas::VmState::kRunning);
}

TEST(AmoebaRuntime, QosHeldAcrossTheSwing) {
  // Diurnal-style gradual ramp: low (5 qps) -> 45 qps over a minute and
  // back. The controller's margin must move the service to IaaS before the
  // serverless pool (capped at 4 containers, λmax ≈ 32 qps) saturates, and
  // the tail stays within the QoS target throughout.
  Fixture f(runtime_config(), /*max_containers=*/4);
  f.runtime.start();
  stats::SampleSet latencies;
  auto rate_fn = [](double t) {
    if (t < 60.0) return 5.0;
    if (t < 120.0) return 5.0 + (t - 60.0) / 60.0 * 40.0;  // ramp up
    if (t < 180.0) return 45.0;
    if (t < 240.0) return 45.0 - (t - 180.0) / 60.0 * 40.0;  // ramp down
    return 5.0;
  };
  workload::PoissonLoadGenerator gen(
      f.engine, sim::Rng(7), rate_fn, 45.0, [&] {
        f.runtime.submit([&](const workload::QueryRecord& r) {
          if (r.arrival > 10.0) latencies.add(r.latency());
        });
      });
  gen.start();
  f.engine.run_until(280.0);
  gen.stop();
  f.runtime.stop();

  ASSERT_GT(latencies.size(), 3000u);
  EXPECT_LT(latencies.quantile(0.95), service().qos_target_s);
}

TEST(AmoebaRuntime, MirroredHeartbeatsCalibrateEstimator) {
  Fixture f;
  f.runtime.start();
  workload::ConstantLoadGenerator gen(f.engine, sim::Rng(8), 20.0, [&] {
    f.runtime.submit([](const workload::QueryRecord&) {});
  });
  gen.start();
  f.engine.run_until(30.0);
  gen.stop();
  f.runtime.stop();
  // 10% of ~600 queries mirrored -> plenty of heartbeat samples.
  EXPECT_GE(f.runtime.controller().estimator().samples(), 24u);
}

TEST(AmoebaRuntime, TimelineSamplingRecordsModeAndUsage) {
  auto cfg = runtime_config();
  cfg.timeline_period_s = 1.0;
  Fixture f(cfg);
  f.runtime.start();
  workload::ConstantLoadGenerator gen(f.engine, sim::Rng(9), 4.0, [&] {
    f.runtime.submit([](const workload::QueryRecord&) {});
  });
  gen.start();
  f.engine.run_until(40.0);
  gen.stop();
  f.runtime.stop();

  const auto& tl = f.runtime.timeline();
  EXPECT_GE(tl.mode.size(), 35u);
  EXPECT_DOUBLE_EQ(tl.mode.points().front().value, 0.0);  // started IaaS
  EXPECT_DOUBLE_EQ(tl.mode.points().back().value, 1.0);   // ended serverless
  // Cumulative usage is non-decreasing.
  const auto& cpu = tl.cpu_core_seconds.points();
  for (std::size_t i = 1; i < cpu.size(); ++i) {
    EXPECT_GE(cpu[i].value, cpu[i - 1].value - 1e-9);
  }
}

TEST(AmoebaRuntime, TimelinePeriodDefaultsToMonitorSamplePeriod) {
  {
    Fixture f;  // runtime_config() leaves timeline_period_s at 0
    EXPECT_DOUBLE_EQ(f.runtime.timeline_period(), 2.0);
    f.runtime.start();
    f.engine.run_until(21.0);
    f.runtime.stop();
    // One sample per monitor period (the t=0 sample precedes start()).
    EXPECT_GE(f.runtime.timeline().mode.size(), 10u);
  }
  {
    auto cfg = runtime_config();
    cfg.timeline_period_s = -1.0;  // negative disables
    Fixture f(cfg);
    EXPECT_LT(f.runtime.timeline_period(), 0.0);
    f.runtime.start();
    f.engine.run_until(21.0);
    f.runtime.stop();
    EXPECT_EQ(f.runtime.timeline().mode.size(), 0u);
  }
  {
    auto cfg = runtime_config();
    cfg.timeline_period_s = 0.5;  // positive used as given
    Fixture f(cfg);
    EXPECT_DOUBLE_EQ(f.runtime.timeline_period(), 0.5);
  }
}

TEST(AmoebaRuntime, ObservabilityRecordsDecisionsAndSpans) {
  obs::Observer observer{obs::ObsConfig{}};
  auto cfg = runtime_config();
  cfg.observer = &observer;
  Fixture f(cfg, /*max_containers=*/4);
  f.runtime.start();
  auto gen = std::make_unique<workload::ConstantLoadGenerator>(
      f.engine, sim::Rng(6), 4.0, [&] {
        f.runtime.submit([](const workload::QueryRecord&) {});
      });
  gen->start();
  f.engine.schedule(60.0, [&] { gen->set_rate(80.0); });  // force a swing
  f.engine.run_until(140.0);
  gen->stop();
  f.runtime.stop();

  // One DecisionRecord per monitor tick for the managed service.
  EXPECT_EQ(observer.audit().size(), f.runtime.monitor().samples_taken());
  bool saw_full_record = false;
  for (const auto& r : observer.audit().records()) {
    EXPECT_EQ(r.service, "svc");
    EXPECT_FALSE(r.decision.empty());
    if (r.lambda_max.has_value()) {
      saw_full_record = true;
      EXPECT_FALSE(r.lambda_iterates.empty());
      EXPECT_GT(r.mu, 0.0);
    }
  }
  EXPECT_TRUE(saw_full_record);

  // The swing produced at least one switch-protocol span and the pool
  // produced container-boot async spans.
  std::size_t switch_spans = 0, query_spans = 0, boot_spans = 0;
  for (const auto& ev : observer.tracer().events()) {
    if (ev.phase == obs::TracePhase::kBegin && ev.category == "switch") {
      ++switch_spans;
    }
    if (ev.phase == obs::TracePhase::kAsyncBegin) {
      if (ev.name == "query") ++query_spans;
      if (ev.name == "container_boot") ++boot_spans;
    }
  }
  EXPECT_GE(switch_spans, 2u);
  EXPECT_GT(query_spans, 100u);
  EXPECT_GE(boot_spans, 1u);
  EXPECT_EQ(observer.tracer().open_spans(), 0u);

  // Metrics were snapshotted each tick (plus stop()'s final snapshot) and
  // the exporters accept the run.
  EXPECT_EQ(observer.metrics().snapshots().size(),
            f.runtime.monitor().samples_taken() + 1);
  std::ostringstream trace_os, summary_os;
  obs::write_chrome_trace(observer.tracer(), trace_os);
  EXPECT_TRUE(obs::parse_json(trace_os.str()).has_value());
  obs::write_summary(observer, summary_os);
  EXPECT_NE(summary_os.str().find("decisions"), std::string::npos);
}

TEST(AmoebaRuntime, DisabledObserverRecordsNothing) {
  obs::Observer observer;  // default-constructed null sink
  auto cfg = runtime_config();
  cfg.observer = &observer;
  Fixture f(cfg);
  f.runtime.start();
  f.engine.run_until(20.0);
  f.runtime.stop();
  EXPECT_TRUE(observer.audit().empty());
  EXPECT_TRUE(observer.tracer().events().empty());
  EXPECT_TRUE(observer.metrics().snapshots().empty());
}

TEST(AmoebaRuntime, MeasuredLoadTracksGenerator) {
  Fixture f;
  f.runtime.start();
  workload::ConstantLoadGenerator gen(f.engine, sim::Rng(10), 12.0, [&] {
    f.runtime.submit([](const workload::QueryRecord&) {});
  });
  gen.start();
  f.engine.run_until(30.0);
  EXPECT_NEAR(f.runtime.measured_load(), 12.0, 3.0);
  gen.stop();
  f.runtime.stop();
}

}  // namespace
}  // namespace amoeba::core
