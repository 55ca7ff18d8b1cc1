// Ablation: monitor sample period under accidental cold starts — the
// §VI-B misjudgment study behind Eq. 8.
//
// Containers are injected with a small crash probability, so "accidental"
// cold starts occur while the service legitimately belongs on serverless.
// A short sample period lets a single cold start own the period's p95 and
// flap the deployment back to IaaS; adequate periods keep the controller
// steady.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/sample_period.hpp"

int main(int argc, char** argv) {
  using namespace amoeba;
  const unsigned jobs = exp::parse_jobs_flag(argc, argv);
  auto cluster = exp::default_cluster();
  cluster.serverless.crash_after_completion_p = 0.01;  // failure injection
  const auto prof = bench::bench_profiling();
  exp::print_banner(std::cout, "Ablation",
                    "sample period vs misjudgment (Eq. 8), float + crashes");

  const auto cal = exp::profile_meters(cluster, prof);
  const auto p = workload::make_float();
  const auto art = exp::profile_service(p, cluster, cal, prof);

  core::SamplePeriodParams eq8;
  eq8.cold_start_s = cluster.serverless.cold_start_mean_s;
  eq8.qos_target_s = p.qos_target_s;
  eq8.exec_time_s = art.solo_latency_s;
  eq8.allowed_error = 0.1;
  std::cout << "Eq. 8 lower bound for float: "
            << exp::fmt_fixed(core::min_sample_period(eq8), 2) << " s\n";

  const std::vector<double> periods = {1.0, 2.0, 5.0, 10.0};
  const auto runs = exp::parallel_map<exp::ManagedRunResult>(
      periods.size(), jobs, [&](std::size_t i) {
        auto opt = bench::bench_run_options();
        auto ac = exp::default_amoeba_config(exp::DeploySystem::kAmoeba);
        ac.monitor.sample_period_s = periods[i];
        opt.amoeba = ac;
        return exp::run_managed(p, exp::DeploySystem::kAmoeba, cluster, cal,
                                art, opt);
      });

  exp::Table table({"sample period (s)", "switches", "violations",
                    "p95/QoS"});
  for (std::size_t i = 0; i < periods.size(); ++i) {
    const auto& r = runs[i];
    table.add_row({exp::fmt_fixed(periods[i], 1),
                   std::to_string(r.switches.size()),
                   exp::fmt_percent(r.violation_fraction()),
                   exp::fmt_fixed(r.p95() / p.qos_target_s, 2)});
  }
  table.print(std::cout);
  std::cout << "\nexpected: short periods over-react to stray cold starts\n"
               "(more switches); periods past the Eq. 8 bound stay steady.\n";
  return 0;
}
