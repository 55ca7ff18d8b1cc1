// Microbenchmarks of the simulated platforms: fair-share reallocation and
// the serverless query path that dominate full-day simulations. (Engine
// throughput proper lives in the standalone `micro_simulator` binary,
// which records BENCH_simulator.json.)
#include <benchmark/benchmark.h>

#include "serverless/platform.hpp"
#include "sim/engine.hpp"
#include "sim/fair_share.hpp"
#include "workload/load_generator.hpp"

namespace {

using namespace amoeba;

void BM_EngineScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine e;
    for (std::size_t i = 0; i < n; ++i) {
      e.schedule(static_cast<double>(i % 97), [] {});
    }
    e.run();
    benchmark::DoNotOptimize(e.executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_EngineScheduleRun)->Arg(1000)->Arg(100000);

// Keeps streams alive on a resource: each completion opens a successor,
// until 2000 have been opened.
class Churn final : public sim::StreamSink {
 public:
  explicit Churn(sim::FairShareResource& cpu) : cpu_(cpu) {}
  void open_one() {
    if (opened_ >= 2000) return;
    ++opened_;
    cpu_.open(0.05, 1.0, *this, 0);
  }
  void stream_done(std::uint32_t /*key*/) override { open_one(); }

 private:
  sim::FairShareResource& cpu_;
  int opened_ = 0;
};

void BM_FairShareChurn(benchmark::State& state) {
  const int concurrency = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine e;
    sim::FairShareResource cpu(e, 40.0);
    Churn churn(cpu);
    for (int i = 0; i < concurrency; ++i) churn.open_one();
    e.run();
    benchmark::DoNotOptimize(cpu.busy_capacity_seconds(e.now()));
  }
  state.SetItemsProcessed(2000 * state.iterations());
}
BENCHMARK(BM_FairShareChurn)->Arg(4)->Arg(32)->Arg(128);

void BM_ServerlessQueryPath(benchmark::State& state) {
  // End-to-end cost of simulating one warm serverless query.
  serverless::PlatformConfig cfg;
  cfg.cores = 40.0;
  cfg.pool_memory_mb = 32768.0;
  cfg.cold_start_mean_s = 0.0;
  workload::FunctionProfile p;
  // std::string{} avoids GCC 12's bogus -Wrestrict on char* assignment
  // under -fsanitize (PR105651).
  p.name = std::string{"f"};
  p.exec = {.cpu_seconds = 0.05, .io_bytes = 1e6, .net_bytes = 1e6};
  p.code_bytes = 1e6;
  p.result_bytes = 1e4;
  p.platform_overhead_s = 0.01;
  p.memory_mb = 256.0;
  p.cpu_cv = 0.1;
  p.qos_target_s = 1.0;
  p.peak_load_qps = 10.0;

  for (auto _ : state) {
    sim::Engine e;
    serverless::ServerlessPlatform sp(e, cfg, sim::Rng(1));
    const serverless::FunctionId fn = sp.register_function(p);
    std::uint64_t done = 0;
    for (int i = 0; i < 500; ++i) {
      e.schedule(0.1 * i, [&] {
        sp.submit(fn, [&done](const workload::QueryRecord&) { ++done; });
      });
    }
    e.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(500 * state.iterations());
}
BENCHMARK(BM_ServerlessQueryPath);

}  // namespace
