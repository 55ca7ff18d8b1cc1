// Fig. 10 — cumulative distribution of query latencies normalized to the
// QoS target, for each benchmark under Amoeba, Nameko (pure IaaS) and
// OpenWhisk (pure serverless), with the §VII-A background tenants.
//
// Paper's shape: Amoeba and Nameko keep the 95%-ile below 1.0 (the
// target); OpenWhisk violates for the contention-sensitive benchmarks;
// Amoeba's curve hugs OpenWhisk's at short latencies (serverless at low
// load) and Nameko's in the tail (IaaS at high load).
#include <iostream>
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace amoeba;
  const unsigned jobs = exp::parse_jobs_flag(argc, argv);
  const auto cluster = exp::default_cluster();
  const auto prof = bench::bench_profiling();
  exp::print_banner(std::cout, "Fig. 10",
                    "latency CDF normalized to the QoS target");

  const auto cal = exp::profile_meters(cluster, prof);
  const auto opt = bench::bench_run_options();
  const exp::DeploySystem systems[] = {exp::DeploySystem::kAmoeba,
                                       exp::DeploySystem::kNameko,
                                       exp::DeploySystem::kOpenWhisk};
  const std::size_t nsys = std::size(systems);
  const double quantiles[] = {0.50, 0.75, 0.90, 0.95, 0.99};

  // Profile each service first (profile_service fans its own cells out),
  // then fan the benchmark x system grid out with parallel_map. Results
  // come back in cell order, so the tables are identical at any --jobs.
  const auto suite = workload::functionbench_suite();
  std::vector<core::ServiceArtifacts> arts;
  arts.reserve(suite.size());
  for (const auto& p : suite) {
    arts.push_back(exp::profile_service(p, cluster, cal, prof));
  }
  const auto runs = exp::parallel_map<exp::ManagedRunResult>(
      suite.size() * nsys, jobs, [&](std::size_t i) {
        return exp::run_managed(suite[i / nsys], systems[i % nsys], cluster,
                                cal, arts[i / nsys], opt);
      });

  for (std::size_t b = 0; b < suite.size(); ++b) {
    const auto& p = suite[b];
    std::cout << "\n== " << p.name << " (QoS " << p.qos_target_s * 1e3
              << " ms, peak " << p.peak_load_qps << " qps)\n";
    exp::Table table({"system", "p50/QoS", "p75/QoS", "p90/QoS", "p95/QoS",
                      "p99/QoS", "violations"});
    for (std::size_t s = 0; s < nsys; ++s) {
      const auto& r = runs[b * nsys + s];
      std::vector<std::string> row = {exp::to_string(systems[s])};
      for (const double q : quantiles) {
        row.push_back(
            exp::fmt_fixed(r.latencies.quantile(q) / p.qos_target_s, 2));
      }
      row.push_back(exp::fmt_percent(r.violation_fraction()));
      table.add_row(row);
    }
    table.print(std::cout);
  }
  std::cout << "\npaper's shape: p95/QoS < 1 for Amoeba and Nameko on every\n"
               "benchmark; OpenWhisk exceeds 1 for the contention-sensitive\n"
               "ones (matmul, dd, cloud_stor in the paper).\n";
  return 0;
}
