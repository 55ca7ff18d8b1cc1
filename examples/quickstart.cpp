// Quickstart: deploy one microservice under Amoeba on a simulated cluster
// and watch it switch between IaaS and serverless as the load swings.
//
//   ./examples/quickstart
//   ./examples/quickstart --trace-out trace.json --metrics-out metrics.jsonl
//   ./examples/quickstart --profile-out profile.jsonl   # self-profile
//
// This is the smallest end-to-end use of the public API:
//   1. build the two platforms (serverless + IaaS) on a simulation engine;
//   2. hand Amoeba a meter calibration and the service's profiled
//      artifacts (here: quick synthetic stand-ins);
//   3. submit queries; Amoeba routes, monitors, predicts and switches.
//
// With --trace-out / --metrics-out / --audit-out / --summary-out the run is
// recorded through the observability layer (see README "Inspecting a run");
// the trace loads directly into ui.perfetto.dev.
#include <iostream>
#include <memory>

#include "core/amoeba.hpp"
#include "obs/exporters.hpp"
#include "obs/profiler.hpp"
#include "workload/load_generator.hpp"
#include "workload/meters.hpp"

using namespace amoeba;

namespace {

/// Synthetic calibration: good enough for a demo; real deployments run
/// exp::profile_meters once on a staging platform (see bench/).
core::MeterCalibration demo_calibration(
    const serverless::PlatformConfig& cfg) {
  core::MeterCalibration cal;
  for (std::size_t d = 0; d < core::kNumResources; ++d) {
    const auto meter = workload::meter_profile(workload::kAllMeters[d]);
    const double base =
        meter.ideal_serverless_latency(cfg.disk_bps, cfg.net_bps);
    cal.curves[d] = core::MeterCurve(
        {{0.02, base}, {0.5, base * 1.5}, {0.95, base * 4.0}});
  }
  return cal;
}

core::ServiceArtifacts demo_artifacts(const workload::FunctionProfile& p,
                                      const serverless::PlatformConfig& cfg) {
  core::ServiceArtifacts art;
  art.solo_latency_s = p.ideal_serverless_latency(cfg.disk_bps, cfg.net_bps);
  std::vector<double> ps = {0.0, 1.0};
  std::vector<double> vs = {0.0, 10.0 * p.peak_load_qps};
  for (std::size_t d = 0; d < core::kNumResources; ++d) {
    const double slope = d == core::kCpuDim ? 1.5 * art.solo_latency_s
                                            : 0.2 * art.solo_latency_s;
    art.surfaces[d] = core::LatencySurface(
        ps, vs,
        {art.solo_latency_s, art.solo_latency_s, art.solo_latency_s + slope,
         art.solo_latency_s + slope});
  }
  art.pressure_per_qps = {p.exec.cpu_seconds / cfg.cores,
                          p.exec.io_bytes / cfg.disk_bps,
                          p.exec.net_bytes / cfg.net_bps};
  return art;
}

}  // namespace

int main(int argc, char** argv) {
  const obs::ExportPaths exports = obs::parse_export_flags(argc, argv);
  obs::Observer observer{obs::ObsConfig{}};

  // Optional self-profile of the simulator (--profile-out): wall time per
  // domain, bucketed by sim time. Attaching it leaves the run bit-identical.
  std::unique_ptr<obs::Profiler> profiler;
  if (!exports.profile.empty()) {
    profiler = std::make_unique<obs::Profiler>();
  }
  obs::ProfilerAttach prof_attach(profiler.get());
  {
    // Everything inside this block (setup, the run, collection) is
    // attributed to the kHarness domain unless a nested scope claims it;
    // the block closes before the profile is reported below.
    AMOEBA_PROF_SCOPE(kHarness);

    // 1. The simulated node (Table II of the paper, shrunk for the demo).
    sim::Engine engine;
    if (profiler) engine.set_profiler(profiler.get());
    sim::Rng rng(2020);
    serverless::PlatformConfig sp_cfg;
    sp_cfg.cores = 16.0;
    sp_cfg.pool_memory_mb = 8192.0;
    serverless::ServerlessPlatform serverless_node(engine, sp_cfg, rng.fork(1));
    iaas::IaasPlatform iaas_node(engine, iaas::IaasConfig{}, rng.fork(2));

    // 2. The managed microservice and the Amoeba runtime.
    workload::FunctionProfile svc;
    svc.name = "hello";
    svc.exec = {.cpu_seconds = 0.06, .io_bytes = 0.0, .net_bytes = 0.0};
    svc.code_bytes = 2e6;
    svc.result_bytes = 2e4;
    svc.platform_overhead_s = 0.015;
    svc.rpc_overhead_s = 0.002;
    svc.memory_mb = 256.0;
    svc.qos_target_s = 0.4;
    svc.peak_load_qps = 60.0;
    svc.validate();

    iaas::VmSpec vm;
    vm.cores = 6.0;
    vm.memory_mb = 4096.0;
    vm.boot_s = 20.0;

    core::AmoebaConfig cfg;
    cfg.monitor.sample_period_s = 5.0;
    if (exports.any()) cfg.observer = &observer;
    serverless_node.set_observer(cfg.observer);
    // Cap the service at its VM-equivalent share of the pool (paper §IV-A's
    // n_max): the discriminant then correctly sends the surge back to IaaS.
    core::AmoebaRuntime amoeba_rt(engine, serverless_node, iaas_node,
                                  demo_calibration(sp_cfg), svc, vm,
                                  demo_artifacts(svc, sp_cfg),
                                  static_cast<int>(vm.cores), cfg, rng.fork(3));
    amoeba_rt.start();

    // 3. A load that starts low (serverless territory), surges (back to
    //    IaaS), and ebbs again.
    std::uint64_t completed = 0;
    stats::SampleSet latencies;
    auto gen = std::make_unique<workload::ConstantLoadGenerator>(
        engine, rng.fork(4), 4.0, [&] {
          amoeba_rt.submit([&](const workload::QueryRecord& r) {
            ++completed;
            latencies.add(r.latency());
          });
        });
    engine.schedule(25.0, [&] { gen->start(); });
    engine.schedule(200.0, [&] { gen->set_rate(70.0); });
    engine.schedule(350.0, [&] { gen->set_rate(4.0); });
    engine.run_until(500.0);
    gen->stop();
    amoeba_rt.stop();

    // 4. What happened.
    std::cout << "queries completed : " << completed << "\n";
    std::cout << "p95 latency       : " << latencies.quantile(0.95) * 1e3
              << " ms (target " << svc.qos_target_s * 1e3 << " ms)\n";
    std::cout << "switch events:\n";
    for (const auto& ev : amoeba_rt.switch_events()) {
      std::cout << "  t=" << ev.time << "s  -> " << core::to_string(ev.to)
                << "  (load " << ev.load_qps << " qps)\n";
    }
    const auto usage = amoeba_rt.usage(engine.now());
    std::cout << "resource usage    : " << usage.cpu_core_seconds
              << " core-s, " << usage.memory_mb_seconds / 1024.0
              << " GB-s\n";
    std::cout << "(pure IaaS would have rented "
              << vm.cores * (engine.now() - 20.0) << " core-s)\n";

  }
  // 5. Export the run's observability artifacts, if asked for.
  obs::write_exports(observer, exports, std::cout);
  if (profiler) {
    obs::write_profile_exports(*profiler, exports.profile, std::cout);
  }
  return 0;
}
