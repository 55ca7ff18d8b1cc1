// Fig. 14 — ablation of the PCA contention monitor: Amoeba-NoM assumes
// per-resource degradations accumulate, over-predicts serverless latency,
// switches to serverless later, and therefore burns more IaaS resources.
// Paper: NoM uses up to 1.77x the CPU and 2.38x the memory of Amoeba.
#include <iostream>
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace amoeba;
  const unsigned jobs = exp::parse_jobs_flag(argc, argv);
  const auto cluster = exp::default_cluster();
  const auto prof = bench::bench_profiling();
  exp::print_banner(std::cout, "Fig. 14",
                    "Amoeba vs Amoeba-NoM resource usage (vs Nameko)");

  const auto cal = exp::profile_meters(cluster, prof);
  const auto opt = bench::bench_run_options();

  const auto suite = workload::functionbench_suite();
  std::vector<core::ServiceArtifacts> arts;
  arts.reserve(suite.size());
  for (const auto& p : suite) {
    arts.push_back(exp::profile_service(p, cluster, cal, prof));
  }
  const exp::DeploySystem systems[] = {exp::DeploySystem::kAmoeba,
                                       exp::DeploySystem::kAmoebaNoM,
                                       exp::DeploySystem::kNameko};
  const auto runs = exp::parallel_map<exp::ManagedRunResult>(
      suite.size() * 3, jobs, [&](std::size_t i) {
        return exp::run_managed(suite[i / 3], systems[i % 3], cluster, cal,
                                arts[i / 3], opt);
      });

  exp::Table table({"benchmark", "cpu Amoeba", "cpu NoM", "NoM/Amoeba",
                    "mem Amoeba", "mem NoM", "NoM/Amoeba"});
  for (std::size_t b = 0; b < suite.size(); ++b) {
    const auto& amoeba_run = runs[b * 3];
    const auto& nom_run = runs[b * 3 + 1];
    const auto& nameko_run = runs[b * 3 + 2];
    const double cpu_a = amoeba_run.usage.cpu_core_seconds /
                         nameko_run.usage.cpu_core_seconds;
    const double cpu_n =
        nom_run.usage.cpu_core_seconds / nameko_run.usage.cpu_core_seconds;
    const double mem_a = amoeba_run.usage.memory_mb_seconds /
                         nameko_run.usage.memory_mb_seconds;
    const double mem_n = nom_run.usage.memory_mb_seconds /
                         nameko_run.usage.memory_mb_seconds;
    table.add_row({suite[b].name, exp::fmt_fixed(cpu_a, 3),
                   exp::fmt_fixed(cpu_n, 3),
                   exp::fmt_fixed(cpu_n / cpu_a, 2) + "x",
                   exp::fmt_fixed(mem_a, 3), exp::fmt_fixed(mem_n, 3),
                   exp::fmt_fixed(mem_n / mem_a, 2) + "x"});
  }
  table.print(std::cout);
  std::cout << "\npaper's shape: NoM >= Amoeba on every benchmark (up to\n"
               "1.77x CPU / 2.38x memory) — the pessimistic accumulation\n"
               "delays the profitable switch to serverless.\n";
  return 0;
}
