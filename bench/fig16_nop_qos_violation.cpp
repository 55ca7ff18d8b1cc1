// Fig. 16 — ablation of the container prewarm strategy: Amoeba-NoP flips
// the route without warming containers, so every switch slams the load
// into cold starts. Paper: 29.9–69.1% of queries violate QoS under NoP;
// full Amoeba eliminates the violations.
#include <iostream>
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace amoeba;
  const unsigned jobs = exp::parse_jobs_flag(argc, argv);
  const auto cluster = exp::default_cluster();
  const auto prof = bench::bench_profiling();
  exp::print_banner(std::cout, "Fig. 16",
                    "QoS violations without container prewarm (Amoeba-NoP)");

  const auto cal = exp::profile_meters(cluster, prof);
  auto opt = bench::bench_run_options();
  opt.keep_records = true;

  // Violation share among queries arriving within `window` seconds after a
  // switch to serverless — the population the missing prewarm hurts.
  const double window = 10.0;
  auto post_switch_violations = [&](const exp::ManagedRunResult& r) {
    std::uint64_t in_window = 0, violating = 0;
    for (const auto& rec : r.records) {
      bool near_switch = false;
      for (const auto& ev : r.switches) {
        if (ev.to == core::DeployMode::kServerless && rec.arrival >= ev.time &&
            rec.arrival < ev.time + window) {
          near_switch = true;
          break;
        }
      }
      if (!near_switch) continue;
      ++in_window;
      if (rec.latency() > r.qos_target_s) ++violating;
    }
    return in_window > 0
               ? static_cast<double>(violating) / static_cast<double>(in_window)
               : 0.0;
  };

  const auto suite = workload::functionbench_suite();
  std::vector<core::ServiceArtifacts> arts;
  arts.reserve(suite.size());
  for (const auto& p : suite) {
    arts.push_back(exp::profile_service(p, cluster, cal, prof));
  }
  const exp::DeploySystem systems[] = {exp::DeploySystem::kAmoeba,
                                       exp::DeploySystem::kAmoebaNoP};
  const auto runs = exp::parallel_map<exp::ManagedRunResult>(
      suite.size() * 2, jobs, [&](std::size_t i) {
        return exp::run_managed(suite[i / 2], systems[i % 2], cluster, cal,
                                arts[i / 2], opt);
      });

  exp::Table table({"benchmark", "overall Amoeba", "overall NoP",
                    "post-switch Amoeba", "post-switch NoP", "switches NoP"});
  for (std::size_t b = 0; b < suite.size(); ++b) {
    const auto& amoeba_run = runs[b * 2];
    const auto& nop_run = runs[b * 2 + 1];
    table.add_row({suite[b].name,
                   exp::fmt_percent(amoeba_run.violation_fraction()),
                   exp::fmt_percent(nop_run.violation_fraction()),
                   exp::fmt_percent(post_switch_violations(amoeba_run)),
                   exp::fmt_percent(post_switch_violations(nop_run)),
                   std::to_string(nop_run.switches.size())});
  }
  table.print(std::cout);
  std::cout << "\npaper's shape: without prewarm, the queries hitting the\n"
               "freshly-flipped serverless deployment suffer cold-start\n"
               "violations (paper: 29.9%–69.1%); with prewarm the same\n"
               "windows stay clean. Our full-day overall numbers are lower\n"
               "than the paper's because violations concentrate in those\n"
               "windows (see EXPERIMENTS.md).\n";
  return 0;
}
