// Ablation: Eq. 7 prewarm headroom — the §V-A trade-off between "too many
// prewarmed containers result in expensive costs" and "fewer ones result
// in potential QoS violation", on the tight-QoS benchmark (float).
#include <iostream>
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace amoeba;
  const unsigned jobs = exp::parse_jobs_flag(argc, argv);
  const auto cluster = exp::default_cluster();
  const auto prof = bench::bench_profiling();
  exp::print_banner(std::cout, "Ablation", "prewarm headroom (float)");

  const auto cal = exp::profile_meters(cluster, prof);
  const auto p = workload::make_float();
  const auto art = exp::profile_service(p, cluster, cal, prof);
  const auto base_opt = bench::bench_run_options();
  const auto nameko = exp::run_managed(p, exp::DeploySystem::kNameko, cluster,
                                       cal, art, base_opt);

  const std::vector<double> headrooms = {1.0, 1.25, 1.5, 2.0};
  const auto runs = exp::parallel_map<exp::ManagedRunResult>(
      headrooms.size(), jobs, [&](std::size_t i) {
        auto opt = base_opt;
        auto ac = exp::default_amoeba_config(exp::DeploySystem::kAmoeba);
        ac.engine.prewarm.headroom = headrooms[i];
        opt.amoeba = ac;
        return exp::run_managed(p, exp::DeploySystem::kAmoeba, cluster, cal,
                                art, opt);
      });

  exp::Table table({"headroom", "p95/QoS", "violations", "mem saved",
                    "cpu saved"});
  for (std::size_t i = 0; i < headrooms.size(); ++i) {
    const auto& r = runs[i];
    table.add_row(
        {exp::fmt_fixed(headrooms[i], 2),
         exp::fmt_fixed(r.p95() / p.qos_target_s, 2),
         exp::fmt_percent(r.violation_fraction()),
         exp::fmt_percent(1.0 - r.usage.memory_mb_seconds /
                                    nameko.usage.memory_mb_seconds),
         exp::fmt_percent(1.0 - r.usage.cpu_core_seconds /
                                    nameko.usage.cpu_core_seconds)});
  }
  table.print(std::cout);
  std::cout << "\nexpected: larger headroom trims cold-start tails at the\n"
               "cost of container memory (§V-A's stated contradiction).\n";
  return 0;
}
