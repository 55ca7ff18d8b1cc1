// Fig. 3 — achievable peak load (QoS held) under serverless-based
// deployment, normalized to IaaS-based deployment with the SAME resources.
// Paper: 73.9%–89.2%; the gap comes from the per-query serverless
// overheads (processing, code load, result post).
#include <iostream>
#include <memory>
#include <optional>

#include "bench_common.hpp"
#include "stats/percentile.hpp"
#include "workload/load_generator.hpp"

namespace {

using namespace amoeba;

/// p95 latency of `p` at constant `qps` on a fresh platform of the given
/// kind. `cores_cap` bounds the serverless container count to the IaaS
/// VM's cores (equal-resources comparison).
std::optional<double> p95_at(const workload::FunctionProfile& p, double qps,
                             bool serverless_mode, int cores_cap,
                             const exp::ClusterConfig& cluster,
                             std::uint64_t seed) {
  sim::Engine engine;
  sim::Rng rng(seed);
  stats::SampleSet lat;
  constexpr double kWarmup = 10.0;
  constexpr double kDuration = 120.0;

  std::unique_ptr<workload::ConstantLoadGenerator> gen;
  std::unique_ptr<serverless::ServerlessPlatform> sp;
  std::unique_ptr<iaas::IaasPlatform> ip;
  auto observe = [&lat](const workload::QueryRecord& r) {
    if (r.arrival >= kWarmup) lat.add(r.latency());
  };

  if (serverless_mode) {
    sp = std::make_unique<serverless::ServerlessPlatform>(
        engine, cluster.serverless, rng.fork(1));
    const serverless::FunctionId fn = sp->register_function(p, cores_cap);
    sp->prewarm(fn, cores_cap);  // fair: no cold-start tax in the sweep
    gen = std::make_unique<workload::ConstantLoadGenerator>(
        engine, rng.fork(2), qps, [&, fn] { sp->submit(fn, observe); });
    engine.schedule(3.0, [&] { gen->start(); });
  } else {
    ip = std::make_unique<iaas::IaasPlatform>(engine, cluster.iaas,
                                              rng.fork(1));
    auto spec = exp::just_enough_vm(p, cluster);
    spec.boot_s = 0.5;
    iaas::VirtualMachine& vm = ip->register_service(p, spec);
    vm.boot([] {});
    gen = std::make_unique<workload::ConstantLoadGenerator>(
        engine, rng.fork(2), qps, [&] { vm.submit(observe); });
    engine.schedule(3.0, [&] { gen->start(); });
  }
  engine.run_until(kDuration);
  gen->stop();
  engine.run();
  if (lat.size() < 50) return std::nullopt;
  return lat.quantile(0.95);
}

/// Largest constant load whose p95 stays under the QoS target (bisection).
double peak_load(const workload::FunctionProfile& p, bool serverless_mode,
                 int cores_cap, const exp::ClusterConfig& cluster) {
  double lo = 0.5;  // assumed feasible
  double hi = p.peak_load_qps * 2.0;
  // Grow hi until infeasible (or give up at 4x nominal peak). A single
  // fixed seed keeps the noisy boundary evaluations consistent across the
  // bisection, so it converges on one realization's crossing point.
  for (int i = 0; i < 8; ++i) {
    const auto p95 = p95_at(p, hi, serverless_mode, cores_cap, cluster,
                            cluster.seed);
    if (!p95.has_value() || *p95 > p.qos_target_s) break;
    lo = hi;
    hi *= 1.5;
  }
  for (int i = 0; i < 12; ++i) {
    const double mid = 0.5 * (lo + hi);
    const auto p95 = p95_at(p, mid, serverless_mode, cores_cap, cluster,
                            cluster.seed);
    if (p95.has_value() && *p95 <= p.qos_target_s) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

int main() {
  using namespace amoeba;
  const auto cluster = exp::default_cluster();
  exp::print_banner(std::cout, "Fig. 3",
                    "serverless peak load normalized to IaaS (equal "
                    "resources)");

  exp::Table table({"benchmark", "resources (cores)", "IaaS peak (qps)",
                    "serverless peak (qps)", "normalized"});
  for (const auto& p : workload::functionbench_suite()) {
    const auto spec = exp::just_enough_vm(p, cluster);
    const int cores = static_cast<int>(spec.cores);
    const double iaas_peak = peak_load(p, false, cores, cluster);
    const double sls_peak = peak_load(p, true, cores, cluster);
    table.add_row({p.name, std::to_string(cores),
                   exp::fmt_fixed(iaas_peak, 1), exp::fmt_fixed(sls_peak, 1),
                   exp::fmt_percent(sls_peak / iaas_peak)});
  }
  table.print(std::cout);
  std::cout << "\npaper's shape: serverless sustains a LOWER peak than IaaS\n"
               "on equal resources (73.9%–89.2%) because every query pays\n"
               "processing + code-load + result-post overhead.\n";
  return 0;
}
