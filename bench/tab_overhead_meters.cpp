// §VII-E — overhead of Amoeba's contention meters: CPU consumed by the
// three probes at 1 QPS on the 40-core node, by design 1.1% / 0.5% / 0.6%
// (total <= 1.1% when scheduled round-trip), verified here by actually
// running the monitor and measuring consumed compute.
#include <iostream>

#include "bench_common.hpp"
#include "core/contention_monitor.hpp"

int main() {
  using namespace amoeba;
  const auto cluster = exp::default_cluster();
  const auto prof = bench::bench_profiling();
  exp::print_banner(std::cout, "§VII-E",
                    "resource overhead of the contention meters");

  const auto cal = exp::profile_meters(cluster, prof);

  sim::Engine engine;
  sim::Rng rng(cluster.seed);
  serverless::ServerlessPlatform sp(engine, cluster.serverless, rng.fork(1));
  core::ContentionMonitorConfig mcfg;
  mcfg.sample_period_s = 5.0;
  core::ContentionMonitor monitor(engine, sp, cal, mcfg, rng.fork(2));
  monitor.start();
  const double duration = 300.0;
  engine.run_until(duration);
  monitor.stop();
  engine.run();  // drain in-flight probes (advances past `duration`)
  const double now = std::max(duration, engine.now());

  const auto nominal = monitor.probe_cpu_overhead();
  exp::Table table({"meter", "nominal CPU overhead", "measured (simulated)",
                    "memory held"});
  static constexpr const char* kNames[] = {"CPU-Memory", "IO", "Network"};
  double total = 0.0;
  for (std::size_t d = 0; d < core::kNumResources; ++d) {
    // The monitor registered its meters by name.
    const serverless::FunctionId meter = *sp.find_function(
        workload::meter_profile(workload::kAllMeters[d]).name);
    const double measured =
        sp.cpu_core_seconds(meter) / (duration * cluster.serverless.cores);
    total += measured;
    table.add_row(
        {kNames[d], exp::fmt_percent(nominal[d], 1),
         exp::fmt_percent(measured, 2),
         exp::fmt_fixed(sp.memory_mb_seconds(meter, now) / duration, 0) +
             " MB"});
  }
  table.print(std::cout);
  std::cout << "\ntotal measured CPU overhead: " << exp::fmt_percent(total, 2)
            << "\npaper: 1.1% / 0.5% / 0.6%; round-trip scheduling bounds the\n"
               "total at the largest single meter (~1.1%).\n";
  return 0;
}
