// Ablation: fault tolerance of the hardened switch protocol — sweeps the
// injected infrastructure failure rate and reports tail latency alongside
// the protocol's retry/abort behaviour. Doubles as the determinism gate
// for fault injection: every configuration runs twice under the same seed
// and the executed event traces must hash identically (nonzero exit
// otherwise), so CI catches any fault path that draws randomness outside
// the injector's forked streams.
//
// Flags: --jobs N (parallel sweep), --smoke (scaled-down run for CI).
#include <iostream>
#include <utility>
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace amoeba;
  const unsigned jobs = exp::parse_jobs_flag(argc, argv);
  const bool smoke = bench::parse_bench_flags(argc, argv).smoke;
  const auto cluster = exp::default_cluster();
  const auto prof = bench::bench_profiling();
  exp::print_banner(std::cout, "Ablation", "fault tolerance (float)");

  const auto cal = exp::profile_meters(cluster, prof);
  const auto p = workload::make_float();
  const auto art = exp::profile_service(p, cluster, cal, prof);
  auto base_opt = bench::bench_run_options();
  if (smoke) base_opt.period_s = 720.0;  // shorter compressed day for CI

  const std::vector<double> rates = {0.0, 0.05, 0.15, 0.30};
  struct RateResult {
    exp::ManagedRunResult run;
    bool deterministic = false;
  };
  const auto runs = exp::parallel_map<RateResult>(
      rates.size(), jobs, [&](std::size_t i) {
        const double rate = rates[i];
        auto opt = base_opt;
        opt.faults.container_boot_failure_p = rate;
        opt.faults.container_straggler_p = rate / 2.0;
        opt.faults.vm_boot_failure_p = rate;
        opt.faults.meter_drop_p = rate / 2.0;
        opt.faults.meter_outlier_p = rate / 4.0;
        auto a = exp::run_managed(p, exp::DeploySystem::kAmoeba, cluster, cal,
                                  art, opt);
        const auto b = exp::run_managed(p, exp::DeploySystem::kAmoeba, cluster,
                                        cal, art, opt);
        const bool same = a.trace_hash == b.trace_hash &&
                          a.fault_counters.total() == b.fault_counters.total();
        return RateResult{std::move(a), same};
      });

  exp::Table table({"fail rate", "p95/QoS", "violations", "switches",
                    "aborts", "retries", "faults", "same-seed hash"});
  bool all_deterministic = true;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const auto& r = runs[i];
    all_deterministic = all_deterministic && r.deterministic;
    table.add_row({exp::fmt_percent(rates[i]),
                   exp::fmt_fixed(r.run.p95() / p.qos_target_s, 2),
                   exp::fmt_percent(r.run.violation_fraction()),
                   std::to_string(r.run.switches.size()),
                   std::to_string(r.run.switch_aborts),
                   std::to_string(r.run.switch_retries),
                   std::to_string(r.run.fault_counters.total()),
                   r.deterministic ? "match" : "MISMATCH"});
  }
  table.print(std::cout);
  std::cout << "\nexpected: p95 degrades gracefully with the failure rate;\n"
               "aborted switches stay on the healthy platform (no outage)\n"
               "and every same-seed pair of runs hashes identically.\n";
  if (!all_deterministic) {
    std::cerr << "FAIL: fault-injected runs diverged under the same seed\n";
    return 1;
  }
  return 0;
}
