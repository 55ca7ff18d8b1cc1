// Microbenchmarks of the monitor's PCA/PCR path: the per-heartbeat window
// update plus refit, and the eigensolver each refit calls.
#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "core/weight_estimator.hpp"
#include "linalg/jacobi_eigen.hpp"
#include "sim/random.hpp"

namespace {

using namespace amoeba;

// One heartbeat of the weight estimator's PCR window at steady state: the
// sample enters the moments, the oldest leaves, and the weights refit
// (refit_interval = 1). The exact re-sum every `window` heartbeats is
// amortized over the run. The cost should not depend on the window size.
void BM_PcrWindowStep(benchmark::State& state) {
  const auto window = static_cast<std::size_t>(state.range(0));
  core::WeightEstimatorConfig cfg;
  cfg.max_samples = window;
  cfg.refit_interval = 1;
  core::WeightEstimator est(cfg, 0.1, 0.0);
  sim::Rng rng(42);
  std::vector<std::pair<core::Features, double>> stream(4096);
  for (auto& [x, y] : stream) {
    const double latent = rng.uniform(0.0, 0.3);
    for (std::size_t j = 0; j < core::kNumResources; ++j) {
      x[j] = 0.1 + latent * (1.0 + 0.2 * static_cast<double>(j)) +
             rng.uniform(0.0, 0.01);
    }
    y = 0.1 + latent + rng.uniform(0.0, 0.005);
  }
  std::size_t i = 0;
  for (std::size_t k = 0; k < window; ++k, ++i) {
    est.observe(stream[i % stream.size()].first,
                stream[i % stream.size()].second);
  }
  for (auto _ : state) {
    const auto& [x, y] = stream[i++ % stream.size()];
    est.observe(x, y);
    benchmark::DoNotOptimize(est.weights());
  }
}
BENCHMARK(BM_PcrWindowStep)->Arg(64)->Arg(256)->Arg(512);

void BM_JacobiEigen(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(45);
  linalg::Matrix a(d, d);
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = i; j < d; ++j) {
      const double v = rng.uniform(-1.0, 1.0);
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  linalg::Matrix work;
  linalg::EigenDecomposition e;
  for (auto _ : state) {
    work = a;
    linalg::jacobi_eigen(work, e);
    benchmark::DoNotOptimize(e.values.data());
  }
}
BENCHMARK(BM_JacobiEigen)->Arg(3)->Arg(8)->Arg(16);

}  // namespace
