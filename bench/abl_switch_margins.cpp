// Ablation: controller switch margins — how much of the discriminant's
// λ_max to actually use, balancing resource savings against QoS risk
// around the switch windows. Run on dd, whose disk cliff punishes late
// switches hardest.
#include <iostream>
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace amoeba;
  const unsigned jobs = exp::parse_jobs_flag(argc, argv);
  const auto cluster = exp::default_cluster();
  const auto prof = bench::bench_profiling();
  exp::print_banner(std::cout, "Ablation", "switch margins (dd)");

  const auto cal = exp::profile_meters(cluster, prof);
  const auto p = workload::make_dd();
  const auto art = exp::profile_service(p, cluster, cal, prof);
  const auto base_opt = bench::bench_run_options();
  const auto nameko = exp::run_managed(p, exp::DeploySystem::kNameko, cluster,
                                       cal, art, base_opt);

  struct MarginPair {
    double to_serverless;
    double to_iaas;
  };
  const std::vector<MarginPair> margins = {MarginPair{0.40, 0.60},
                                           MarginPair{0.60, 0.80},
                                           MarginPair{0.80, 0.95},
                                           MarginPair{0.95, 1.00}};
  const auto runs = exp::parallel_map<exp::ManagedRunResult>(
      margins.size(), jobs, [&](std::size_t i) {
        const auto& m = margins[i];
        auto opt = base_opt;
        auto ac = exp::default_amoeba_config(exp::DeploySystem::kAmoeba);
        ac.controller.to_serverless_margin = m.to_serverless;
        ac.controller.to_iaas_margin = m.to_iaas;
        opt.amoeba = ac;
        return exp::run_managed(p, exp::DeploySystem::kAmoeba, cluster, cal,
                                art, opt);
      });

  exp::Table table({"entry margin", "exit margin", "violations", "p95/QoS",
                    "cpu saved", "switches"});
  for (std::size_t i = 0; i < margins.size(); ++i) {
    const auto& m = margins[i];
    const auto& r = runs[i];
    table.add_row(
        {exp::fmt_fixed(m.to_serverless, 2), exp::fmt_fixed(m.to_iaas, 2),
         exp::fmt_percent(r.violation_fraction()),
         exp::fmt_fixed(r.p95() / p.qos_target_s, 2),
         exp::fmt_percent(1.0 - r.usage.cpu_core_seconds /
                                    nameko.usage.cpu_core_seconds),
         std::to_string(r.switches.size())});
  }
  table.print(std::cout);
  std::cout << "\nexpected: aggressive margins (right column ~1.0) squeeze\n"
               "more serverless time but ride the QoS cliff; conservative\n"
               "margins trade savings for safety.\n";
  return 0;
}
