// Fig. 2 — CPU utilization of the benchmarks under just-enough IaaS
// deployment over a diurnal day: lowest / average / highest window
// utilization. Paper: lowest 2.6–15.1%, average 13.6–70.9%, highest
// 24.1–95.1% — the waste Amoeba recovers.
#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "stats/utilization.hpp"
#include "workload/load_generator.hpp"

namespace {

using namespace amoeba;

struct UtilRow {
  std::string name;
  int cores;
  double lowest, average, highest;
};

UtilRow run_one(const workload::FunctionProfile& p,
                const exp::ClusterConfig& cluster, double period_s) {
  sim::Engine engine;
  sim::Rng rng(cluster.seed);
  iaas::IaasPlatform ip(engine, cluster.iaas, rng.fork(1));
  const auto spec = exp::just_enough_vm(p, cluster);
  iaas::VirtualMachine& vm = ip.register_service(p, spec);
  vm.boot([] {});

  auto trace = std::make_unique<workload::DiurnalTrace>(
      exp::diurnal_for(p, period_s), cluster.seed);
  workload::PoissonLoadGenerator gen(engine, rng.fork(2), *trace, [&] {
    vm.submit([](const workload::QueryRecord&) {});
  });
  engine.schedule(cluster.iaas.vm_boot_s + 1.0, [&] { gen.start(); });

  // Sample the VM's busy cores once per second into windowed utilization.
  const double t0 = cluster.iaas.vm_boot_s + 5.0;
  const double t1 = t0 + period_s;
  stats::UtilizationTracker tracker(spec.cores, period_s / 24.0);
  double last_busy = 0.0;
  std::function<void()> sample = [&] {
    const double now = engine.now();
    if (now < t0) {
      last_busy = vm.busy_core_seconds(now);
    } else {
      const double busy = vm.busy_core_seconds(now);
      tracker.set(now, busy - last_busy);  // cores busy over the last 1 s
      last_busy = busy;
    }
    if (now < t1) engine.schedule_in(1.0, sample);
  };
  engine.schedule(t0 - 1.0, sample);
  engine.run_until(t1);
  gen.stop();
  tracker.finish(t1);

  return UtilRow{p.name, static_cast<int>(spec.cores), tracker.window_min(),
                 tracker.average(), tracker.window_max()};
}

}  // namespace

int main() {
  using namespace amoeba;
  const auto cluster = exp::default_cluster();
  exp::print_banner(std::cout, "Fig. 2",
                    "CPU utilization with just-enough IaaS deployment");

  exp::Table table({"benchmark", "vm cores", "lowest", "average", "highest"});
  for (const auto& p : workload::functionbench_suite()) {
    const auto row = run_one(p, cluster, 600.0);
    table.add_row({row.name, std::to_string(row.cores),
                   exp::fmt_percent(row.lowest), exp::fmt_percent(row.average),
                   exp::fmt_percent(row.highest)});
  }
  table.print(std::cout);
  std::cout << "\npaper's shape: averages well below the rented allocation\n"
               "(13.6%–70.9%); tight-QoS benchmarks (float, cloud_stor)\n"
               "stay low even at peak.\n";
  return 0;
}
