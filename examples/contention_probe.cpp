// Contention probe: watch the multi-resource contention monitor quantify
// pressure on a shared serverless platform as tenants come and go.
//
//   ./examples/contention_probe
//
// Timeline: an idle platform, then a CPU-hungry tenant, then an IO-hungry
// tenant on top, then both leave. The monitor only sees meter latencies —
// the printed "true" columns come from the simulator's ground truth so you
// can judge the estimate.
#include <iomanip>
#include <iostream>
#include <memory>

#include "core/contention_monitor.hpp"
#include "workload/functionbench.hpp"
#include "workload/load_generator.hpp"

using namespace amoeba;

int main() {
  sim::Engine engine;
  sim::Rng rng(7);
  serverless::PlatformConfig cfg;
  cfg.cores = 16.0;
  cfg.pool_memory_mb = 16384.0;
  cfg.disk_bps = 1.5e9;
  cfg.net_bps = 2.0e9;
  cfg.cpu_interference = 0.35;  // gradual CPU-memory degradation
  serverless::ServerlessPlatform platform(engine, cfg, rng.fork(1));

  // Calibration stand-in (see bench/fig08_meter_curves for the real one).
  core::MeterCalibration cal;
  for (std::size_t d = 0; d < core::kNumResources; ++d) {
    const auto meter = workload::meter_profile(workload::kAllMeters[d]);
    const double base =
        meter.ideal_serverless_latency(cfg.disk_bps, cfg.net_bps);
    cal.curves[d] = core::MeterCurve({{0.02, base},
                                      {0.30, base * 1.12},
                                      {0.60, base * 1.7},
                                      {0.95, base * 3.5}});
  }

  core::ContentionMonitorConfig mon_cfg;
  mon_cfg.sample_period_s = 5.0;
  core::ContentionMonitor monitor(engine, platform, cal, mon_cfg,
                                  rng.fork(2));

  std::cout << std::fixed << std::setprecision(2);
  std::cout << "  t(s) | est cpu  est io  est net | busy cpu busy io busy net\n"
            << "-------+--------------------------+---------------------------\n";
  double prev_cpu = 0.0, prev_io = 0.0, prev_net = 0.0, prev_t = 0.0;
  monitor.set_on_sample([&] {
    const double now = engine.now();
    const double dt = now - prev_t;
    const double cpu_i = platform.true_cpu_busy_integral(now);
    const double io_i = platform.true_disk_busy_integral(now);
    const double net_i = platform.true_net_busy_integral(now);
    const auto p = monitor.pressures();
    std::cout << std::setw(6) << now << " |" << std::setw(8) << p[0]
              << std::setw(8) << p[1] << std::setw(9) << p[2] << " |"
              << std::setw(9) << (cpu_i - prev_cpu) / dt << std::setw(8)
              << (io_i - prev_io) / dt << std::setw(9)
              << (net_i - prev_net) / dt << "\n";
    prev_cpu = cpu_i;
    prev_io = io_i;
    prev_net = net_i;
    prev_t = now;
  });
  monitor.start();

  // CPU tenant from t=30: ~60% of the cores.
  const auto cpu_tenant = workload::make_stressor(workload::StressKind::kCpu);
  const serverless::FunctionId cpu_fn = platform.register_function(cpu_tenant);
  auto cpu_gen = std::make_unique<workload::ConstantLoadGenerator>(
      engine, rng.fork(3), 0.6 * cfg.cores / cpu_tenant.exec.cpu_seconds,
      [&] { platform.submit(cpu_fn, [](const workload::QueryRecord&) {}); });
  engine.schedule(30.0, [&] {
    std::cout << "-- t=30: CPU tenant joins (~0.6 pressure)\n";
    cpu_gen->start();
  });

  // IO tenant from t=60: ~50% of the disk.
  const auto io_tenant = workload::make_stressor(workload::StressKind::kDiskIo);
  const serverless::FunctionId io_fn = platform.register_function(io_tenant);
  auto io_gen = std::make_unique<workload::ConstantLoadGenerator>(
      engine, rng.fork(4), 0.5 * cfg.disk_bps / io_tenant.exec.io_bytes,
      [&] { platform.submit(io_fn, [](const workload::QueryRecord&) {}); });
  engine.schedule(60.0, [&] {
    std::cout << "-- t=60: IO tenant joins (~0.5 disk pressure)\n";
    io_gen->start();
  });

  engine.schedule(90.0, [&] {
    std::cout << "-- t=90: both tenants leave\n";
    cpu_gen->stop();
    io_gen->stop();
  });

  engine.run_until(120.0);
  monitor.stop();

  std::cout << "\nthe estimates lag one sample period and saturate at the\n"
               "calibrated range ends — exactly the behaviour the paper's\n"
               "deployment controller is designed around.\n";
  return 0;
}
