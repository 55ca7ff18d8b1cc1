// The phase walk both platforms share: its own contract (events, stamps,
// slot reuse), the same contract seen through each platform, and
// closed-form queueing oracles for each platform's walk.
#include "workload/phase_runner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/reference_queueing.hpp"
#include "iaas/vm.hpp"
#include "serverless/platform.hpp"
#include "sim/random.hpp"

namespace amoeba::workload {
namespace {

using Query = PhaseRunner::Query;

Query make_query(std::uint64_t id, double delay,
                 std::vector<PhaseRunner::Phase> phases,
                 QueryCompletionFn on_done) {
  Query q;
  q.record.id = id;
  q.record.breakdown.overhead_s = delay;
  for (std::size_t i = 0; i < phases.size(); ++i) q.phases[i] = phases[i];
  q.on_done = std::move(on_done);
  return q;
}

TEST(PhaseWalk, SoloQueryFiresOneEventPerPhaseWithWorkPlusTheDelay) {
  sim::Engine e;
  sim::FairShareResource cpu(e, 2.0);
  sim::FairShareResource disk(e, 100.0);
  std::vector<QueryRecord> done;
  PhaseRunner runner(e, [&](Query& q) { q.on_done(q.record); });
  // Five phases, two of them without work: 3 streams + 1 delay event.
  runner.start(make_query(
      7, 0.25,
      {{&disk, 50.0, 0.0, &LatencyBreakdown::code_load_s},
       {&cpu, 0.0, 1.0, &LatencyBreakdown::exec_s},
       {&cpu, 0.5, 1.0, &LatencyBreakdown::exec_s},
       {&disk, -1.0, 0.0, &LatencyBreakdown::exec_s},
       {&disk, 20.0, 0.0, &LatencyBreakdown::post_s}},
      [&](const QueryRecord& r) { done.push_back(r); }));
  EXPECT_EQ(runner.live(), 1u);
  e.run();
  EXPECT_EQ(e.executed(), 4u);
  EXPECT_EQ(runner.live(), 0u);
  ASSERT_EQ(done.size(), 1u);
  const QueryRecord& r = done[0];
  EXPECT_EQ(r.id, 7u);
  EXPECT_DOUBLE_EQ(r.breakdown.overhead_s, 0.25);
  EXPECT_NEAR(r.breakdown.code_load_s, 0.5, 1e-12);
  EXPECT_NEAR(r.breakdown.exec_s, 0.5, 1e-12);
  EXPECT_NEAR(r.breakdown.post_s, 0.2, 1e-12);
  EXPECT_NEAR(r.completion, 0.25 + 0.5 + 0.5 + 0.2, 1e-12);
}

TEST(PhaseWalk, NoDelayAndNoWorkCompletesInsideStartWithoutEvents) {
  sim::Engine e;
  int finished = 0;
  PhaseRunner runner(e, [&](Query& q) {
    ++finished;
    q.on_done(q.record);
  });
  bool observed = false;
  runner.start(make_query(1, 0.0, {},
                          [&](const QueryRecord&) { observed = true; }));
  EXPECT_EQ(finished, 1);
  EXPECT_TRUE(observed);
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_EQ(runner.live(), 0u);
}

TEST(PhaseWalk, FinishStepMayStartQueriesThatGrowTheTable) {
  // The first completion starts 64 more queries from inside the finish
  // step, while the runner is still unwinding that completion; the table
  // grows past its first slot and every query still finishes exactly once
  // with its own record.
  sim::Engine e;
  sim::FairShareResource cpu(e, 4.0);
  std::vector<std::uint64_t> ids;
  PhaseRunner* self = nullptr;
  PhaseRunner runner(e, [&](Query& q) {
    q.on_done(q.record);
    if (q.record.id != 0) return;
    for (std::uint64_t i = 1; i <= 64; ++i) {
      self->start(make_query(
          i, 0.0,
          {{&cpu, 0.01 * static_cast<double>(i), 1.0,
            &LatencyBreakdown::exec_s}},
          [&ids](const QueryRecord& r) { ids.push_back(r.id); }));
    }
  });
  self = &runner;
  runner.start(make_query(
      0, 0.0, {{&cpu, 0.5, 1.0, &LatencyBreakdown::exec_s}},
      [&ids](const QueryRecord& r) { ids.push_back(r.id); }));
  e.run();
  ASSERT_EQ(ids.size(), 65u);
  for (std::uint64_t i = 0; i <= 64; ++i) EXPECT_EQ(ids[i], i);
  EXPECT_EQ(runner.live(), 0u);
}

// --- The walk's contract through each platform ------------------------------

FunctionProfile walk_profile() {
  FunctionProfile p;
  p.name = "walk";
  p.exec = {.cpu_seconds = 0.2, .io_bytes = 0.0, .net_bytes = 3e6};
  p.code_bytes = 2e6;
  p.result_bytes = 1e6;
  p.platform_overhead_s = 0.01;
  p.rpc_overhead_s = 0.002;
  p.memory_mb = 256.0;
  p.cpu_cv = 0.0;
  p.qos_target_s = 1.0;
  p.peak_load_qps = 10.0;
  return p;
}

iaas::VmSpec instant_vm(double cores) {
  iaas::VmSpec spec;
  spec.cores = cores;
  spec.memory_mb = 4096.0;
  spec.boot_s = 0.0;
  return spec;
}

serverless::PlatformConfig warm_node() {
  serverless::PlatformConfig cfg;
  cfg.cores = 8.0;
  cfg.pool_memory_mb = 2048.0;
  cfg.disk_bps = 1e9;
  cfg.net_bps = 1e9;
  cfg.cold_start_mean_s = 0.0;
  cfg.keep_alive_s = 1e9;  // the one container never expires mid-run
  return cfg;
}

TEST(PhaseWalk, VmSoloQueryCostsOneEventPerPhaseWithWork) {
  sim::Engine e;
  iaas::VirtualMachine vm(e, walk_profile(), instant_vm(2.0), sim::Rng(1),
                          1e9, 1e9);
  vm.boot([] {});
  e.run();
  const std::uint64_t before = e.executed();
  QueryRecord rec;
  vm.submit([&](const QueryRecord& r) { rec = r; });
  e.run();
  // rpc delay + cpu + net; the io phase has no work and costs nothing.
  EXPECT_EQ(e.executed() - before, 3u);
  EXPECT_DOUBLE_EQ(rec.breakdown.overhead_s, 0.002);
  EXPECT_NEAR(rec.breakdown.exec_s, 0.2 + 0.003, 1e-12);
  EXPECT_NEAR(rec.latency(), 0.002 + 0.2 + 0.003, 1e-12);
}

TEST(PhaseWalk, ServerlessSoloQueryCostsOneEventPerPhaseWithWork) {
  sim::Engine e;
  serverless::ServerlessPlatform sp(e, warm_node(), sim::Rng(2));
  const serverless::FunctionId fn = sp.register_function(walk_profile(), 1);
  sp.prewarm(fn, 1);
  e.run_until(1.0);
  const std::uint64_t before = e.executed();
  QueryRecord rec;
  sp.submit(fn, [&](const QueryRecord& r) { rec = r; });
  e.run_until(2.0);
  // overhead delay + code load + cpu + net + post; io has no work. The
  // keep-alive expiry the release schedules is far in the future.
  EXPECT_EQ(e.executed() - before, 5u);
  EXPECT_FALSE(rec.cold);
  EXPECT_DOUBLE_EQ(rec.breakdown.overhead_s, 0.01);
  EXPECT_NEAR(rec.breakdown.code_load_s, 0.002, 1e-12);
  EXPECT_NEAR(rec.breakdown.exec_s, 0.2 + 0.003, 1e-12);
  EXPECT_NEAR(rec.breakdown.post_s, 0.001, 1e-12);
  EXPECT_NEAR(rec.latency(), 0.01 + 0.002 + 0.203 + 0.001, 1e-12);
}

/// Chains `depth` queries through `submit`: each on_done checks its record
/// and submits the next one.
template <typename Submit>
void run_chain(sim::Engine& e, int depth, double latency, Submit submit) {
  std::uint64_t completed = 0;
  std::function<void(const QueryRecord&)> on_done =
      [&](const QueryRecord& r) {
        ++completed;
        EXPECT_EQ(r.id, completed);
        EXPECT_NEAR(r.latency(), latency, 1e-9) << "query " << r.id;
        if (completed < static_cast<std::uint64_t>(depth)) submit(on_done);
      };
  submit(on_done);
  e.run_until(e.now() + 2.0 * latency * depth);
  EXPECT_EQ(completed, static_cast<std::uint64_t>(depth));
}

TEST(PhaseWalk, VmOnDoneChainsAThousandQueries) {
  sim::Engine e;
  iaas::VirtualMachine vm(e, walk_profile(), instant_vm(2.0), sim::Rng(3),
                          1e9, 1e9);
  vm.boot([] {});
  e.run();
  run_chain(e, 1000, 0.002 + 0.2 + 0.003,
            [&](const QueryCompletionFn& done) { vm.submit(done); });
  // The drain completes at once: nothing is left in flight.
  bool drained = false;
  vm.drain_and_stop([&](bool ok) { drained = ok; });
  EXPECT_TRUE(drained);
}

TEST(PhaseWalk, ServerlessOnDoneChainsAThousandQueries) {
  sim::Engine e;
  serverless::ServerlessPlatform sp(e, warm_node(), sim::Rng(4));
  const serverless::FunctionId fn = sp.register_function(walk_profile(), 1);
  sp.prewarm(fn, 1);
  e.run_until(1.0);
  run_chain(e, 1000, 0.01 + 0.002 + 0.203 + 0.001,
            [&](const QueryCompletionFn& done) { sp.submit(fn, done); });
  EXPECT_EQ(sp.stats(fn).completed, 1000u);
  EXPECT_EQ(sp.stats(fn).cold_hits, 0u);
}

// --- Closed-form oracles ----------------------------------------------------
// Each replication drives Poisson(λ) arrivals into one platform and returns
// the mean latency of the queries that arrive in [warmup, horizon); the run
// then drains, so every measured query completes. As in
// FairShareOracle.MM1ProcessorSharingMeanSojourn, R independent
// replications give a 99.9% Student-t interval (t_{0.9995, 19} = 3.883)
// whose half-width must be under 8% of the expected value, and the
// expectation must lie inside it.

constexpr int kReplications = 20;
constexpr double kT = 3.883;

/// Drives Poisson(λ) arrivals in [0, horizon) through `submit`, runs the
/// engine until every query has drained, and returns the mean latency of
/// the queries that arrived after `warmup`.
template <typename Submit>
double mean_latency(sim::Engine& e, sim::Rng& rng, double lambda,
                    double warmup, double horizon, Submit submit) {
  double sum = 0.0;
  std::uint64_t n = 0;
  std::function<void()> arrive = [&] {
    const bool measured = e.now() >= warmup;
    submit([&sum, &n, measured](const QueryRecord& r) {
      if (!measured) return;
      sum += r.latency();
      ++n;
    });
    const double next = e.now() + rng.exponential(lambda);
    if (next < horizon) e.schedule(next, arrive);
  };
  e.schedule(e.now() + rng.exponential(lambda), arrive);
  // Past the drain; a warm container's keep-alive expiry comes later.
  e.run_until(horizon * 100.0);
  return sum / static_cast<double>(n);
}

template <typename Replicate>
void expect_mean_matches(double expected, const char* label,
                         Replicate replicate) {
  double sum = 0.0, sum_sq = 0.0;
  for (int rep = 0; rep < kReplications; ++rep) {
    const double m = replicate(std::uint64_t{0x0a11ce00} +
                               static_cast<std::uint64_t>(rep));
    sum += m;
    sum_sq += m * m;
  }
  const double mean = sum / kReplications;
  const double var =
      (sum_sq - kReplications * mean * mean) / (kReplications - 1);
  const double half_width = kT * std::sqrt(var / kReplications);
  EXPECT_LT(half_width, 0.08 * expected) << label;
  EXPECT_NEAR(mean, expected, half_width)
      << label << " mean=" << mean << " expected=" << expected;
}

FunctionProfile cpu_only(double cpu_s, double cv) {
  FunctionProfile p = walk_profile();
  p.exec = {.cpu_seconds = cpu_s, .io_bytes = 0.0, .net_bytes = 0.0};
  p.code_bytes = 0.0;
  p.result_bytes = 0.0;
  p.platform_overhead_s = 0.0;
  p.rpc_overhead_s = 0.0;
  p.cpu_cv = cv;
  return p;
}

TEST(PhaseWalkOracle, VmMeanSojournIsMmcForAnyServiceDistribution) {
  // A VM shares its c cores among n queries at min(1, c/n) each: a
  // symmetric queue, so its occupancy is insensitive to the service
  // distribution and the mean sojourn is M/M/c's, E[W] + 1/μ, for any cpu
  // work CV. Service is cpu only, mean 1 s.
  constexpr int kCores = 4;
  constexpr double kMu = 1.0;
  // Each utilization with its run length in mean service times: sojourns
  // stay correlated longer near saturation.
  constexpr std::pair<double, double> kLoads[] = {{0.5, 1500.0},
                                                  {0.8, 6000.0}};
  for (const auto& [rho, horizon] : kLoads) {
    for (const double cv : {0.1, 1.0, 2.0}) {
      const double lambda = rho * kCores * kMu;
      const double expected =
          core::queueing::testing::mean_wait(lambda, kCores, kMu) + 1.0 / kMu;
      const std::string label =
          "rho=" + std::to_string(rho) + " cv=" + std::to_string(cv);
      expect_mean_matches(expected, label.c_str(), [&](std::uint64_t seed) {
        sim::Engine e;
        sim::Rng rng(seed);
        iaas::VirtualMachine vm(e, cpu_only(1.0 / kMu, cv),
                                instant_vm(kCores), rng.fork(1), 1e9, 1e9);
        vm.boot([] {});
        e.run();
        return mean_latency(e, rng, lambda, 200.0, horizon / kMu,
                            [&](QueryCompletionFn done) {
                              vm.submit(std::move(done));
                            });
      });
    }
  }
}

TEST(PhaseWalkOracle, WarmContainerMeetsPollaczekKhinchine) {
  // One prewarmed container that never expires is an M/G/1 FIFO server:
  // queries wait in the function's queue and each runs alone, so every
  // phase runs at its uncontended rate. With fixed overhead, code load and
  // post around lognormal cpu work of mean m and CV cv, E[S] = fixed + m,
  // E[S²] = E[S]² + (m·cv)², and E[T] = λE[S²]/(2(1−ρ)) + E[S].
  // (At cv = 2 the interval is too loose to be a check; it is left out.)
  const double cpu_mean = 0.5;
  FunctionProfile p = cpu_only(cpu_mean, 0.0);
  p.platform_overhead_s = 0.02;
  p.code_bytes = 2e7;    // 20 ms at 1 GB/s
  p.result_bytes = 1e7;  // 10 ms at 1 GB/s
  const double es = 0.02 + 0.02 + cpu_mean + 0.01;
  // One server correlates sojourns far longer than four: longer runs.
  constexpr std::pair<double, double> kLoads[] = {{0.5, 5600.0},
                                                  {0.8, 21000.0}};
  for (const auto& [rho, horizon] : kLoads) {
    for (const double cv : {0.1, 1.0}) {
      p.cpu_cv = cv;
      const double lambda = rho / es;
      const double es2 = es * es + (cpu_mean * cv) * (cpu_mean * cv);
      const double expected = lambda * es2 / (2.0 * (1.0 - rho)) + es;
      const std::string label =
          "rho=" + std::to_string(rho) + " cv=" + std::to_string(cv);
      expect_mean_matches(expected, label.c_str(), [&](std::uint64_t seed) {
        sim::Engine e;
        sim::Rng rng(seed);
        serverless::ServerlessPlatform sp(e, warm_node(), rng.fork(1));
        const serverless::FunctionId fn = sp.register_function(p, 1);
        sp.prewarm(fn, 1);
        e.run_until(1.0);
        return mean_latency(e, rng, lambda, 200.0, horizon * es,
                            [&](QueryCompletionFn done) {
                              sp.submit(fn, std::move(done));
                            });
      });
    }
  }
}

}  // namespace
}  // namespace amoeba::workload
