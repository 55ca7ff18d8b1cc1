// Ablation: load-trend anticipation for the switch-back decision.
//
// Amoeba must begin the 30 s VM boot before the serverless pool saturates.
// This study sweeps the anticipation horizon on `dd` — the benchmark whose
// disk cliff is steepest — and reports QoS violations vs resource savings.
// Horizon 0 reproduces a purely reactive controller.
#include <iostream>
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace amoeba;
  const unsigned jobs = exp::parse_jobs_flag(argc, argv);
  const auto cluster = exp::default_cluster();
  const auto prof = bench::bench_profiling();
  exp::print_banner(std::cout, "Ablation",
                    "load-trend anticipation horizon (dd)");

  const auto cal = exp::profile_meters(cluster, prof);
  const auto p = workload::make_dd();
  const auto art = exp::profile_service(p, cluster, cal, prof);

  auto base_opt = bench::bench_run_options();
  const auto nameko = exp::run_managed(p, exp::DeploySystem::kNameko, cluster,
                                       cal, art, base_opt);

  const std::vector<double> horizons = {0.0, 20.0, 40.0, 80.0};
  const auto runs = exp::parallel_map<exp::ManagedRunResult>(
      horizons.size(), jobs, [&](std::size_t i) {
        auto opt = base_opt;
        auto ac = exp::default_amoeba_config(exp::DeploySystem::kAmoeba);
        ac.load_anticipation_s = horizons[i];
        opt.amoeba = ac;
        return exp::run_managed(p, exp::DeploySystem::kAmoeba, cluster, cal,
                                art, opt);
      });

  exp::Table table({"anticipation (s)", "p95/QoS", "violations", "cpu saved",
                    "mem saved", "switches"});
  for (std::size_t i = 0; i < horizons.size(); ++i) {
    const auto& r = runs[i];
    table.add_row(
        {exp::fmt_fixed(horizons[i], 0),
         exp::fmt_fixed(r.p95() / p.qos_target_s, 2),
         exp::fmt_percent(r.violation_fraction()),
         exp::fmt_percent(1.0 - r.usage.cpu_core_seconds /
                                    nameko.usage.cpu_core_seconds),
         exp::fmt_percent(1.0 - r.usage.memory_mb_seconds /
                                    nameko.usage.memory_mb_seconds),
         std::to_string(r.switches.size())});
  }
  table.print(std::cout);
  std::cout << "\nexpected: violations shrink as the horizon covers the\n"
               "hysteresis+boot window; beyond that, earlier switches only\n"
               "sacrifice savings.\n";
  return 0;
}
