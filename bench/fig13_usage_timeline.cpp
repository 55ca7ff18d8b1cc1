// Fig. 13 — resource-usage timeline under Amoeba for float and dd.
// float (tight QoS, big just-enough VM) shows abrupt usage steps at the
// switches; dd (loose QoS relative to its execution) changes smoothly
// with load.
#include <iostream>

#include "bench_common.hpp"

namespace {

using namespace amoeba;

void usage_timeline(const workload::FunctionProfile& p,
                    const exp::ClusterConfig& cluster,
                    const core::MeterCalibration& cal,
                    const exp::ProfilingConfig& prof) {
  auto opt = bench::bench_run_options();
  opt.timeline_period_s = opt.period_s / 64.0;
  const auto art = exp::profile_service(p, cluster, cal, prof);
  const auto r = exp::run_managed(p, exp::DeploySystem::kAmoeba, cluster,
                                  cal, art, opt);

  std::cout << "\n== " << p.name << " — instantaneous resource usage\n";
  exp::Table table({"t (s)", "mode", "load (qps)", "cpu rate (cores)",
                    "memory (MB)"});
  const auto& cpu = r.timeline.cpu_core_seconds;  // cumulative
  const auto& mem = r.timeline.memory_mb_seconds; // cumulative
  const auto& mode = r.timeline.mode;
  if (cpu.size() < 3) {
    std::cout << "(no timeline captured)\n";
    return;
  }
  const auto& pts = cpu.points();
  const auto& mpts = mem.points();
  // Differentiate the cumulative integrals over ~8-sample strides.
  const std::size_t stride = 2;
  for (std::size_t i = stride; i < pts.size(); i += stride) {
    const double dt = pts[i].t - pts[i - stride].t;
    if (dt <= 0.0) continue;
    const double cpu_rate = (pts[i].value - pts[i - stride].value) / dt;
    const double mem_mb = (mpts[i].value - mpts[i - stride].value) / dt;
    table.add_row(
        {exp::fmt_fixed(pts[i].t - 40.0, 0),
         mode.value_at(pts[i].t) >= 0.5 ? "serverless" : "iaas",
         exp::fmt_fixed(r.timeline.load_qps.value_at(pts[i].t), 1),
         exp::fmt_fixed(cpu_rate, 2), exp::fmt_fixed(mem_mb, 0)});
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  using namespace amoeba;
  const auto cluster = exp::default_cluster();
  const auto prof = bench::bench_profiling();
  exp::print_banner(std::cout, "Fig. 13",
                    "resource-usage timeline under Amoeba (float, dd)");
  const auto cal = exp::profile_meters(cluster, prof);
  usage_timeline(workload::make_float(), cluster, cal, prof);
  usage_timeline(workload::make_dd(), cluster, cal, prof);
  std::cout << "\npaper's shape: float jumps between the VM's full rent and\n"
               "the containers' small footprint (abrupt); dd's usage follows\n"
               "its load smoothly while serverless.\n";
  return 0;
}
