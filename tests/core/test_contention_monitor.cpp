#include "core/contention_monitor.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "sim/fault_injector.hpp"
#include "workload/functionbench.hpp"
#include "workload/load_generator.hpp"

namespace amoeba::core {
namespace {

serverless::PlatformConfig node_config() {
  serverless::PlatformConfig cfg;
  cfg.cores = 8.0;
  cfg.pool_memory_mb = 16384.0;
  cfg.disk_bps = 1.0e9;
  cfg.net_bps = 1.0e9;
  cfg.cold_start_mean_s = 0.5;
  cfg.cold_start_cv = 0.0;
  cfg.keep_alive_s = 120.0;
  return cfg;
}

/// Synthetic calibration: linear latency growth from the meter's ideal
/// solo latency to 4x at full pressure. Close enough in shape to let the
/// monitor discriminate "low" from "high" pressure.
MeterCalibration synthetic_calibration(const serverless::PlatformConfig& cfg) {
  MeterCalibration cal;
  for (std::size_t d = 0; d < kNumResources; ++d) {
    const auto p = workload::meter_profile(workload::kAllMeters[d]);
    const double base = p.ideal_serverless_latency(cfg.disk_bps, cfg.net_bps);
    cal.curves[d] = MeterCurve({{0.02, base},
                                {0.30, base * 1.15},
                                {0.60, base * 1.8},
                                {0.95, base * 4.0}});
  }
  return cal;
}

ContentionMonitorConfig monitor_config() {
  ContentionMonitorConfig cfg;
  cfg.sample_period_s = 5.0;
  return cfg;
}

TEST(ContentionMonitor, RequiresCompleteCalibration) {
  sim::Engine e;
  serverless::ServerlessPlatform sp(e, node_config(), sim::Rng(1));
  MeterCalibration incomplete;
  EXPECT_THROW(ContentionMonitor(e, sp, incomplete, monitor_config(),
                                 sim::Rng(2)),
               ContractError);
}

TEST(ContentionMonitor, RegistersMeterFunctionsOnStart) {
  sim::Engine e;
  serverless::ServerlessPlatform sp(e, node_config(), sim::Rng(3));
  ContentionMonitor monitor(e, sp, synthetic_calibration(node_config()),
                            monitor_config(), sim::Rng(4));
  monitor.start();
  EXPECT_TRUE(sp.find_function("meter_cpu_memory").has_value());
  EXPECT_TRUE(sp.find_function("meter_disk_io").has_value());
  EXPECT_TRUE(sp.find_function("meter_network").has_value());
}

TEST(ContentionMonitor, IdlePlatformReportsLowPressure) {
  sim::Engine e;
  serverless::ServerlessPlatform sp(e, node_config(), sim::Rng(5));
  ContentionMonitor monitor(e, sp, synthetic_calibration(node_config()),
                            monitor_config(), sim::Rng(6));
  monitor.start();
  e.run_until(30.0);
  const auto p = monitor.pressures();
  for (std::size_t d = 0; d < kNumResources; ++d) {
    EXPECT_LT(p[d], 0.25) << "dim " << d;
  }
  EXPECT_GE(monitor.samples_taken(), 5u);
  monitor.stop();
}

TEST(ContentionMonitor, DetectsCpuPressureOnTheRightDimension) {
  sim::Engine e;
  serverless::ServerlessPlatform sp(e, node_config(), sim::Rng(7));
  ContentionMonitor monitor(e, sp, synthetic_calibration(node_config()),
                            monitor_config(), sim::Rng(8));
  monitor.start();

  // CPU stressor at ~85% of the 8 cores.
  const auto stressor = workload::make_stressor(workload::StressKind::kCpu);
  const serverless::FunctionId stress_fn = sp.register_function(stressor);
  workload::ConstantLoadGenerator gen(e, sim::Rng(9), 68.0, [&] {
    sp.submit(stress_fn, [](const workload::QueryRecord&) {});
  });
  gen.start();
  e.run_until(60.0);
  gen.stop();

  const auto p = monitor.pressures();
  EXPECT_GT(p[kCpuDim], 0.45);
  // The IO/net meters carry small CPU bodies of their own (that is what
  // makes their §VII-E overheads nonzero), so CPU saturation bleeds into
  // their readings — the correlated interference the paper's PCA stage
  // exists to untangle (§VI-A). The CPU dimension must still dominate.
  EXPECT_LT(p[kIoDim], p[kCpuDim]);
  EXPECT_LT(p[kNetDim], p[kCpuDim]);
  monitor.stop();
}

TEST(ContentionMonitor, SampleCallbackFiresEveryPeriod) {
  sim::Engine e;
  serverless::ServerlessPlatform sp(e, node_config(), sim::Rng(10));
  ContentionMonitor monitor(e, sp, synthetic_calibration(node_config()),
                            monitor_config(), sim::Rng(11));
  int samples = 0;
  monitor.set_on_sample([&samples] { ++samples; });
  monitor.start();
  e.run_until(26.0);
  monitor.stop();
  EXPECT_EQ(samples, 5);  // periods at t = 5, 10, 15, 20, 25
}

TEST(ContentionMonitor, StopHaltsProbing) {
  sim::Engine e;
  serverless::ServerlessPlatform sp(e, node_config(), sim::Rng(12));
  ContentionMonitor monitor(e, sp, synthetic_calibration(node_config()),
                            monitor_config(), sim::Rng(13));
  monitor.start();
  e.run_until(12.0);
  monitor.stop();
  const auto before = monitor.samples_taken();
  e.run();
  EXPECT_EQ(monitor.samples_taken(), before);
}

TEST(ContentionMonitor, ProbeOverheadMatchesSectionVIIE) {
  sim::Engine e;
  auto cfg = node_config();
  cfg.cores = 40.0;  // the paper's node size
  serverless::ServerlessPlatform sp(e, cfg, sim::Rng(14));
  ContentionMonitor monitor(e, sp, synthetic_calibration(cfg),
                            monitor_config(), sim::Rng(15));
  const auto overhead = monitor.probe_cpu_overhead();
  EXPECT_NEAR(overhead[kCpuDim], 0.011, 1e-9);
  EXPECT_NEAR(overhead[kIoDim], 0.005, 1e-9);
  EXPECT_NEAR(overhead[kNetDim], 0.006, 1e-9);
}

TEST(ContentionMonitor, MeterLatenciesExposedAfterSampling) {
  sim::Engine e;
  serverless::ServerlessPlatform sp(e, node_config(), sim::Rng(16));
  ContentionMonitor monitor(e, sp, synthetic_calibration(node_config()),
                            monitor_config(), sim::Rng(17));
  for (const auto& l : monitor.meter_latencies()) {
    EXPECT_FALSE(l.has_value());
  }
  monitor.start();
  e.run_until(15.0);
  monitor.stop();
  for (const auto& l : monitor.meter_latencies()) {
    ASSERT_TRUE(l.has_value());
    EXPECT_GT(*l, 0.0);
  }
}

TEST(ContentionMonitor, DroppedMeterSamplesHoldLastPressure) {
  sim::Engine e;
  serverless::ServerlessPlatform sp(e, node_config(), sim::Rng(18));
  ContentionMonitor monitor(e, sp, synthetic_calibration(node_config()),
                            monitor_config(), sim::Rng(19));
  monitor.start();

  const auto stressor = workload::make_stressor(workload::StressKind::kCpu);
  const serverless::FunctionId stress_fn = sp.register_function(stressor);
  workload::ConstantLoadGenerator gen(e, sim::Rng(20), 68.0, [&] {
    sp.submit(stress_fn, [](const workload::QueryRecord&) {});
  });
  gen.start();
  e.run_until(60.0);
  gen.stop();
  const auto before = monitor.pressures();
  ASSERT_GT(before[kCpuDim], 0.3);

  // From here every meter completion is lost before aggregation. The
  // monitor holds the last-known estimate indefinitely.
  sim::FaultConfig fc;
  fc.meter_drop_p = 1.0;
  sim::FaultInjector faults(fc, sim::Rng(21));
  monitor.set_fault_injector(&faults);
  e.run_until(90.0);
  const auto after = monitor.pressures();
  for (std::size_t d = 0; d < kNumResources; ++d) {
    EXPECT_DOUBLE_EQ(after[d], before[d]) << "dim " << d;
  }
  // The staleness is surfaced: ages grew to roughly the faulty window.
  EXPECT_GT(monitor.pressure_ages()[kCpuDim], 20.0);
  EXPECT_GT(faults.counters().meter_drops, 0u);
  monitor.stop();
}

TEST(ContentionMonitor, OutlierContaminationInflatesPressure) {
  sim::Engine e;
  serverless::ServerlessPlatform sp(e, node_config(), sim::Rng(26));
  ContentionMonitor monitor(e, sp, synthetic_calibration(node_config()),
                            monitor_config(), sim::Rng(27));
  sim::FaultConfig fc;
  fc.meter_outlier_p = 1.0;
  fc.meter_outlier_factor = 8.0;  // every meter latency reads 8x too high
  sim::FaultInjector faults(fc, sim::Rng(28));
  monitor.set_fault_injector(&faults);
  monitor.start();
  e.run_until(30.0);
  // The platform is idle, yet contaminated telemetry reports saturation.
  EXPECT_GT(monitor.pressures()[kCpuDim], 0.4);
  EXPECT_GT(faults.counters().meter_outliers, 0u);
  monitor.stop();
}

}  // namespace
}  // namespace amoeba::core
