// Fig. 9 — latency surfaces of an example microservice: its 95%-ile
// service latency as a function of (resource pressure, own load), one
// surface per contended resource. The paper plots one example service; we
// use `dd` (CPU-medium, IO-high per Table III), so the CPU and IO surfaces
// rise while the network surface stays flat.
#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace amoeba;
  const auto cluster = exp::default_cluster();
  const auto cfg = bench::bench_profiling();
  exp::print_banner(std::cout, "Fig. 9",
                    "latency surfaces L(P, V_u) of the `dd` microservice");

  const auto cal = exp::profile_meters(cluster, cfg);
  const auto subject = workload::make_dd();
  const auto art = exp::profile_service(subject, cluster, cal, cfg);

  static constexpr const char* kNames[] = {"CPU", "disk IO", "network"};
  for (std::size_t d = 0; d < core::kNumResources; ++d) {
    const auto& s = *art.surfaces[d];
    std::cout << "\n(" << static_cast<char>('a' + d) << ") sensitivity to "
              << kNames[d] << " — p95 latency (ms), rows = pressure, "
              << "cols = load (qps)\n";
    std::vector<std::string> headers = {"P \\ V_u"};
    for (double l : s.loads()) headers.push_back(exp::fmt_fixed(l, 1));
    exp::Table table(headers);
    for (std::size_t pi = 0; pi < s.pressures().size(); ++pi) {
      std::vector<std::string> row = {exp::fmt_fixed(s.pressures()[pi], 2)};
      for (std::size_t li = 0; li < s.loads().size(); ++li) {
        row.push_back(exp::fmt_fixed(s.value(pi, li) * 1e3, 1));
      }
      table.add_row(row);
    }
    table.print(std::cout);
  }
  std::cout << "\nsolo latency L0 = " << exp::fmt_fixed(art.solo_latency_s * 1e3, 1)
            << " ms; measured pressure footprint per qps: cpu="
            << exp::fmt_fixed(art.pressure_per_qps[0], 4) << " io="
            << exp::fmt_fixed(art.pressure_per_qps[1], 4) << " net="
            << exp::fmt_fixed(art.pressure_per_qps[2], 4) << "\n"
            << "\npaper's shape: the surface climbs along the pressure axis\n"
               "only for resources the service is sensitive to.\n";
  return 0;
}
