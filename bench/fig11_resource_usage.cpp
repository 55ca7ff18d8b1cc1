// Fig. 11 — resource usage of each benchmark under Amoeba, normalized to
// Nameko (pure IaaS). Paper: CPU reduced 29.1–72.9%, memory 30.2–84.9%.
#include <iostream>
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace amoeba;
  const unsigned jobs = exp::parse_jobs_flag(argc, argv);
  const auto cluster = exp::default_cluster();
  const auto prof = bench::bench_profiling();
  exp::print_banner(std::cout, "Fig. 11",
                    "Amoeba resource usage normalized to Nameko");

  const auto cal = exp::profile_meters(cluster, prof);
  const auto opt = bench::bench_run_options();

  const auto suite = workload::functionbench_suite();
  std::vector<core::ServiceArtifacts> arts;
  arts.reserve(suite.size());
  for (const auto& p : suite) {
    arts.push_back(exp::profile_service(p, cluster, cal, prof));
  }
  const exp::DeploySystem systems[] = {exp::DeploySystem::kAmoeba,
                                       exp::DeploySystem::kNameko};
  const auto runs = exp::parallel_map<exp::ManagedRunResult>(
      suite.size() * 2, jobs, [&](std::size_t i) {
        return exp::run_managed(suite[i / 2], systems[i % 2], cluster, cal,
                                arts[i / 2], opt);
      });

  exp::Table table({"benchmark", "cpu (norm)", "cpu saved", "mem (norm)",
                    "mem saved", "switches"});
  for (std::size_t b = 0; b < suite.size(); ++b) {
    const auto& amoeba_run = runs[b * 2];
    const auto& nameko_run = runs[b * 2 + 1];
    const double cpu_norm = amoeba_run.usage.cpu_core_seconds /
                            nameko_run.usage.cpu_core_seconds;
    const double mem_norm = amoeba_run.usage.memory_mb_seconds /
                            nameko_run.usage.memory_mb_seconds;
    table.add_row({suite[b].name, exp::fmt_fixed(cpu_norm, 3),
                   exp::fmt_percent(1.0 - cpu_norm),
                   exp::fmt_fixed(mem_norm, 3),
                   exp::fmt_percent(1.0 - mem_norm),
                   std::to_string(amoeba_run.switches.size())});
  }
  table.print(std::cout);
  std::cout << "\npaper's shape: substantial reductions on every benchmark\n"
               "(CPU up to 72.9%, memory up to 84.9%), because the trough of\n"
               "the diurnal day runs serverless while the VM is released.\n";
  return 0;
}
