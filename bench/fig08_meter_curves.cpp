// Fig. 8 — contention-meter calibration curves: each meter runs alone on
// the serverless platform at a sweep of loads; its latency vs the pressure
// it generates is the curve the monitor later inverts.
#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace amoeba;
  const auto cluster = exp::default_cluster();
  const auto cfg = bench::bench_profiling();
  exp::print_banner(std::cout, "Fig. 8",
                    "meter latency vs meter pressure (calibration curves)");

  const auto cal = exp::profile_meters(cluster, cfg);
  for (std::size_t d = 0; d < core::kNumResources; ++d) {
    std::cout << "\n(" << static_cast<char>('a' + d) << ") "
              << to_string(workload::kAllMeters[d]) << " meter\n";
    exp::Table table({"pressure", "latency (ms)", "slowdown"});
    const auto& curve = *cal.curves[d];
    for (const auto& pt : curve.points()) {
      table.add_row({exp::fmt_fixed(pt.pressure, 2),
                     exp::fmt_fixed(pt.latency * 1e3, 2),
                     exp::fmt_fixed(pt.latency / curve.base_latency(), 2) +
                         "x"});
    }
    table.print(std::cout);
  }
  std::cout << "\npaper's shape: monotone latency growth, steepening as the\n"
               "resource saturates; the inverse of these curves is the\n"
               "monitor's pressure estimator.\n";
  return 0;
}
