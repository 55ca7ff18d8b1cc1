// Fig. 12 — deploy-mode switch timeline for the paper's two representative
// benchmarks (float, dd): load curve, active mode, and the switch points.
// The loads at which Amoeba switches to serverless vs back to IaaS are NOT
// identical, because the discriminant folds in the live contention.
#include <iomanip>
#include <iostream>

#include "bench_common.hpp"

namespace {

using namespace amoeba;

void timeline_for(const workload::FunctionProfile& p,
                  const exp::ClusterConfig& cluster,
                  const core::MeterCalibration& cal,
                  const exp::ProfilingConfig& prof,
                  bench::BenchObservability& bobs) {
  auto opt = bench::bench_run_options();
  opt.timeline_period_s = opt.period_s / 64.0;
  opt.observer = bobs.begin_run();
  opt.profiler = bobs.profiler();
  const auto art = exp::profile_service(p, cluster, cal, prof);
  const auto r = exp::run_managed(p, exp::DeploySystem::kAmoeba, cluster,
                                  cal, art, opt);
  bobs.end_run(p.name);

  std::cout << "\n== " << p.name << " — one diurnal day ("
            << opt.period_s << " s, peak " << p.peak_load_qps << " qps)\n";
  std::cout << "switch points (paper's stars):\n";
  for (const auto& ev : r.switches) {
    std::cout << "  t=" << exp::fmt_fixed(ev.time - opt.warmup_s, 0)
              << "s  -> " << core::to_string(ev.to) << " at load "
              << exp::fmt_fixed(ev.load_qps, 1) << " qps\n";
  }
  if (!r.timeline.mode.empty()) {
    std::cout << "timeline (#=load bar, mode in margin):\n";
    const auto samples = r.timeline.mode.resample(
        r.timeline.mode.points().front().t, opt.warmup_s + opt.period_s, 32);
    for (const auto& s : samples) {
      const double l = r.timeline.load_qps.value_at(s.t);
      std::cout << "  t=" << std::setw(4)
                << static_cast<int>(s.t - opt.warmup_s) << "s "
                << (s.value >= 0.5 ? "[serverless]" : "[iaas      ]") << " ";
      const int bars = static_cast<int>(l / p.peak_load_qps * 40.0);
      for (int i = 0; i < bars; ++i) std::cout << '#';
      std::cout << " " << exp::fmt_fixed(l, 1) << "\n";
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace amoeba;
  bench::BenchObservability bobs(argc, argv);
  const auto cluster = exp::default_cluster();
  const auto prof = bench::bench_profiling();
  exp::print_banner(std::cout, "Fig. 12",
                    "deploy-mode switch timeline (float, dd)");
  const auto cal = exp::profile_meters(cluster, prof);
  timeline_for(workload::make_float(), cluster, cal, prof, bobs);
  timeline_for(workload::make_dd(), cluster, cal, prof, bobs);
  std::cout << "\npaper's shape: serverless through the trough, IaaS through\n"
               "the rushes; the to-serverless and to-IaaS switch loads\n"
               "differ because contention varies across the day.\n";
  return 0;
}
