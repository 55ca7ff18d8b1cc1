// Fig. 4 — per-query latency breakdown on the serverless platform (solo,
// warm containers, no queueing / cold start counted, exactly like the
// paper's figure). Paper: processing + code loading + result posting take
// 10–45% of end-to-end latency.
#include <iostream>

#include "bench_common.hpp"
#include "workload/load_generator.hpp"

namespace {

using namespace amoeba;

struct Breakdown {
  double overhead = 0.0, code = 0.0, exec = 0.0, post = 0.0;
  std::uint64_t n = 0;
};

Breakdown measure(const workload::FunctionProfile& p,
                  const exp::ClusterConfig& cluster) {
  sim::Engine engine;
  sim::Rng rng(cluster.seed);
  serverless::ServerlessPlatform sp(engine, cluster.serverless, rng.fork(1));
  const serverless::FunctionId fn = sp.register_function(p);
  Breakdown b;
  workload::ConstantLoadGenerator gen(engine, rng.fork(2), 2.0, [&] {
    sp.submit(fn, [&b](const workload::QueryRecord& r) {
      if (r.arrival < 5.0) return;  // warmup (skip the cold start)
      b.overhead += r.breakdown.overhead_s;
      b.code += r.breakdown.code_load_s;
      b.exec += r.breakdown.exec_s;
      b.post += r.breakdown.post_s;
      b.n += 1;
    });
  });
  gen.start();
  engine.run_until(65.0);
  gen.stop();
  engine.run();
  return b;
}

}  // namespace

int main() {
  using namespace amoeba;
  const auto cluster = exp::default_cluster();
  exp::print_banner(std::cout, "Fig. 4",
                    "latency breakdown of solo serverless queries");

  exp::Table table({"benchmark", "processing", "code load", "execution",
                    "result post", "overhead share"});
  for (const auto& p : workload::functionbench_suite()) {
    const auto b = measure(p, cluster);
    const double n = static_cast<double>(b.n);
    const double total = (b.overhead + b.code + b.exec + b.post) / n;
    const double overhead_share =
        (b.overhead + b.code + b.post) / n / total;
    auto ms = [&n](double sum) {
      return exp::fmt_fixed(sum / n * 1e3, 2) + " ms";
    };
    table.add_row({p.name, ms(b.overhead), ms(b.code), ms(b.exec),
                   ms(b.post), exp::fmt_percent(overhead_share)});
  }
  table.print(std::cout);
  std::cout << "\npaper's shape: overhead share 10%–45%, largest for the\n"
               "short-running benchmarks (cloud_stor), smallest for the\n"
               "compute-heavy ones (linpack).\n";
  return 0;
}
