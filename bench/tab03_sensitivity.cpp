// Table III — the benchmark suite and its per-resource load sensitivity,
// derived from each profile's demand mix on the Table II node.
#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace amoeba;
  const auto cluster = exp::default_cluster();
  exp::print_banner(std::cout, "Table III",
                    "benchmarks and their load sensitivities");

  exp::Table table({"name", "CPU", "Memory", "Disk I/O", "Network",
                    "QoS (ms)", "peak (qps)"});
  for (const auto& p : workload::functionbench_suite()) {
    const auto v = workload::classify_sensitivity(
        p, cluster.serverless.disk_bps, cluster.serverless.net_bps);
    table.add_row({p.name, to_string(v.cpu), to_string(v.memory),
                   to_string(v.disk_io), to_string(v.network),
                   exp::fmt_fixed(p.qos_target_s * 1e3, 0),
                   exp::fmt_fixed(p.peak_load_qps, 0)});
  }
  table.print(std::cout);
  std::cout << "\nmatches the paper's Table III classes: float/matmul/\n"
               "linpack CPU+memory high; dd disk-high; cloud_stor\n"
               "network-high.\n";
  return 0;
}
