// A full diurnal day of one FunctionBench microservice under Amoeba, with
// the paper's §VII-A background tenants — the headline scenario of
// Figs. 10–13, as a single runnable walk-through.
//
//   ./examples/diurnal_day [benchmark] [period_s]
//
// benchmark ∈ {float, matmul, linpack, dd, cloud_stor} (default: float).
// Each run first profiles the meters and the chosen service in memory, on
// the benches' profiling grid (a fraction of a second of host time).
#include <cstdlib>
#include <iostream>

#include "bench_common.hpp"

using namespace amoeba;

int main(int argc, char** argv) {
  const std::string which = argc > 1 ? argv[1] : "float";
  const double period = argc > 2 ? std::atof(argv[2]) : 600.0;

  workload::FunctionProfile fg;
  bool found = false;
  for (const auto& p : workload::functionbench_suite()) {
    if (p.name == which) {
      fg = p;
      found = true;
    }
  }
  if (!found || period <= 0.0) {
    std::cerr << "usage: diurnal_day [float|matmul|linpack|dd|cloud_stor] "
                 "[period_s]\n";
    return 1;
  }

  const auto cluster = exp::default_cluster();
  const auto prof_cfg = bench::bench_profiling();
  const auto calibration = exp::profile_meters(cluster, prof_cfg);
  const auto artifacts =
      exp::profile_service(fg, cluster, calibration, prof_cfg);

  auto opt = bench::bench_run_options();
  opt.period_s = period;
  opt.timeline_period_s = period / 48.0;

  std::cout << "running one " << period << " s day of '" << fg.name
            << "' (peak " << fg.peak_load_qps << " qps, QoS "
            << fg.qos_target_s * 1e3 << " ms) under Amoeba...\n";
  const auto amoeba_run = exp::run_managed(
      fg, exp::DeploySystem::kAmoeba, cluster, calibration, artifacts, opt);
  const auto nameko_run = exp::run_managed(
      fg, exp::DeploySystem::kNameko, cluster, calibration, artifacts, opt);

  std::cout << "\nqueries: " << amoeba_run.queries
            << ", p95: " << amoeba_run.p95() * 1e3 << " ms (target "
            << fg.qos_target_s * 1e3 << " ms), violations: "
            << exp::fmt_percent(amoeba_run.violation_fraction()) << "\n";

  std::cout << "\nswitch timeline (paper Fig. 12):\n";
  for (const auto& ev : amoeba_run.switches) {
    std::cout << "  t=" << exp::fmt_fixed(ev.time - opt.warmup_s, 0)
              << "s -> " << core::to_string(ev.to) << " at "
              << exp::fmt_fixed(ev.load_qps, 1) << " qps\n";
  }
  if (amoeba_run.switches.empty()) {
    std::cout << "  (no switches — the load never entered serverless "
                 "territory)\n";
  }

  std::cout << "\nload/mode timeline (mode: 0 = IaaS, 1 = serverless):\n";
  const auto& mode = amoeba_run.timeline.mode;
  const auto& load = amoeba_run.timeline.load_qps;
  if (!mode.empty()) {
    const auto samples =
        mode.resample(mode.points().front().t, opt.warmup_s + period, 24);
    for (const auto& s : samples) {
      const double l = load.value_at(s.t);
      std::cout << "  t=" << exp::fmt_fixed(s.t - opt.warmup_s, 0)
                << "s load=" << exp::fmt_fixed(l, 1) << " qps  mode="
                << (s.value >= 0.5 ? "serverless" : "iaas      ") << "  |";
      const int bars = static_cast<int>(l / fg.peak_load_qps * 40.0);
      for (int i = 0; i < bars; ++i) std::cout << '#';
      std::cout << "\n";
    }
  }

  std::cout << "\nresource usage vs pure IaaS (paper Fig. 11):\n"
            << "  cpu:    " << exp::fmt_fixed(amoeba_run.usage.cpu_core_seconds, 0)
            << " core-s vs " << exp::fmt_fixed(nameko_run.usage.cpu_core_seconds, 0)
            << " core-s  (-"
            << exp::fmt_percent(1.0 - amoeba_run.usage.cpu_core_seconds /
                                          nameko_run.usage.cpu_core_seconds)
            << ")\n"
            << "  memory: "
            << exp::fmt_fixed(amoeba_run.usage.memory_mb_seconds / 1024.0, 0)
            << " GB-s vs "
            << exp::fmt_fixed(nameko_run.usage.memory_mb_seconds / 1024.0, 0)
            << " GB-s  (-"
            << exp::fmt_percent(1.0 - amoeba_run.usage.memory_mb_seconds /
                                          nameko_run.usage.memory_mb_seconds)
            << ")\n";
  return 0;
}
