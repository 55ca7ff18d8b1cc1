// Heap allocations on the simulator's steady-state paths, counted with the
// replaced global operator new of counting_new.cpp. Each test counts past a
// warm-up (the profiling cell and the shared-node day: the difference
// between two run lengths), so one-time growth of reused buffers (slot
// tables, heaps, sample vectors) and container boots are not counted.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "core/deployment_controller.hpp"
#include "core/queueing.hpp"
#include "core/weight_estimator.hpp"
#include "counting_new.hpp"
#include "exp/cluster.hpp"
#include "exp/profiling.hpp"
#include "serverless/platform.hpp"
#include "sim/fair_share.hpp"
#include "sim/random.hpp"
#include "support/callback_sink.hpp"
#include "workload/functionbench.hpp"
#include "workload/load_generator.hpp"

namespace amoeba {
namespace {

using testing::allocations;

TEST(AllocationCount, FairShareSteadyStateAllocatesNothing) {
  // Two cap classes (1-core streams and uncapped ones) that fill, drain and
  // empty every round: the class heaps and the drained buffer must be
  // reused (and the test sink's callback table).
  sim::Engine engine;
  sim::testing::CallbackSink sink;
  sim::FairShareResource cpu(engine, 4.0);
  std::uint64_t done = 0;
  auto round = [&](int r) {
    for (int i = 0; i < 6; ++i) {
      const double work = 0.1 * (1 + (i + r) % 4);
      sink.open(cpu, work, 1.0, [&done] { ++done; });
      sink.open(cpu, work, 0.0, [&done] { ++done; });
    }
    engine.run();
  };
  for (int r = 0; r < 8; ++r) round(r);  // warm-up
  const std::uint64_t before = allocations();
  const std::uint64_t done_before = done;
  for (int r = 0; r < 200; ++r) round(r);
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(done - done_before, 200u * 12u);
}

TEST(AllocationCount, WarmFloatInvocationIsNearlyAllocationFree) {
  // float at 2 qps Poisson: every invocation after the first finds a warm
  // container. 2 k queries of warm-up, then 20 k counted.
  sim::Engine engine;
  serverless::ServerlessPlatform sp(engine, serverless::PlatformConfig{},
                                    sim::Rng(11));
  const serverless::FunctionId fn =
      sp.register_function(workload::make_float());
  std::uint64_t completed = 0;
  workload::PoissonLoadGenerator gen(
      engine, sim::Rng(12), [](double) { return 2.0; }, 2.0, [&] {
        sp.submit(fn, [&completed](const workload::QueryRecord&) {
          ++completed;
        });
      });
  gen.start();
  while (completed < 2000) engine.run_until(engine.now() + 10.0);
  const std::uint64_t before = allocations();
  const std::uint64_t completed_before = completed;
  while (completed - completed_before < 20000) {
    engine.run_until(engine.now() + 10.0);
  }
  const double per_query =
      static_cast<double>(allocations() - before) /
      static_cast<double>(completed - completed_before);
  EXPECT_LT(per_query, 0.5) << per_query << " allocations per invocation";
  gen.stop();
}

TEST(AllocationCount, StressedProfilingCellIsNearlyAllocationFree) {
  // The cell Profiling.StressedCellIsBitIdenticalToRecordedAnchor pins: a
  // float subject next to a CPU stressor at 0.85 pressure, run for its 12 s
  // and again for 48 s. The 12 s cell also boots its whole container pool
  // (130 cold starts, a few allocations each); the 48 s cell boots the same
  // pool (no cold start after 24 s), so the difference is what the extra
  // 36 s of queries cost. Both streams are Poisson, so about
  // (subject + stressor rate) × 36 s extra queries complete.
  auto cluster = exp::default_cluster();
  cluster.serverless.cores = 8.0;
  cluster.serverless.disk_bps = 1.0e9;
  cluster.serverless.net_bps = 1.0e9;
  cluster.serverless.pool_memory_mb = 16384.0;
  workload::FunctionProfile subject = workload::make_float();
  subject.peak_load_qps = 24.0;
  const double subject_qps = 12.0;
  const auto stressor = workload::make_stressor(workload::StressKind::kCpu);
  const double stressor_qps = exp::stressor_load_for_pressure(
      workload::StressKind::kCpu, 0.85, cluster);

  auto cell_allocations = [&](double duration_s, std::uint64_t samples) {
    exp::ProfilingConfig cfg;
    cfg.cell_duration_s = duration_s;
    cfg.warmup_s = 3.0;
    const std::uint64_t before = allocations();
    const auto cell = exp::run_profile_cell(subject, subject_qps, &stressor,
                                            stressor_qps, cluster, cfg, 7);
    const std::uint64_t made = allocations() - before;
    EXPECT_EQ(cell.samples, samples) << duration_s << " s cell";
    return made;
  };
  const std::uint64_t anchor = cell_allocations(12.0, 104);
  const std::uint64_t longer = cell_allocations(48.0, 535);
  ASSERT_GE(longer, anchor);
  const double extra_queries = (subject_qps + stressor_qps) * (48.0 - 12.0);
  const double per_query =
      static_cast<double>(longer - anchor) / extra_queries;
  EXPECT_LT(per_query, 0.5) << anchor << " allocations in the 12 s cell, "
                            << longer << " in the 48 s cell";
}

TEST(AllocationCount, ColdStartsAllocateLittle) {
  // The same 12 s stressed cell, counted whole, as pinned and with half
  // the containers crashing after a query (the platform's failure
  // injection). The arrivals are the same (the generators never see the
  // pool), but each crash forces a later cold start. The allocations the
  // extra boots add, per extra boot, must stay under one: a boot takes a
  // reused table row and keeps its callbacks there, a bound query waits in
  // a reused per-container slot, and the boot event fits the engine's
  // inline buffer. Measured: 0.008 per extra boot; 3.0 when the pool and
  // the platform each kept a map node per container and the boot event
  // carried its two callbacks to the heap.
  auto cluster = exp::default_cluster();
  cluster.serverless.cores = 8.0;
  cluster.serverless.disk_bps = 1.0e9;
  cluster.serverless.net_bps = 1.0e9;
  cluster.serverless.pool_memory_mb = 16384.0;
  workload::FunctionProfile subject = workload::make_float();
  subject.peak_load_qps = 24.0;
  const auto stressor = workload::make_stressor(workload::StressKind::kCpu);
  const double stressor_qps = exp::stressor_load_for_pressure(
      workload::StressKind::kCpu, 0.85, cluster);
  exp::ProfilingConfig cfg;
  cfg.cell_duration_s = 12.0;
  cfg.warmup_s = 3.0;
  struct Count {
    std::uint64_t allocations = 0;
    std::uint64_t boots = 0;
  };
  auto cell = [&](double crash_p) {
    cluster.serverless.crash_after_completion_p = crash_p;
    const std::uint64_t before = allocations();
    const auto r = exp::run_profile_cell(subject, 12.0, &stressor,
                                         stressor_qps, cluster, cfg, 7);
    return Count{allocations() - before, r.cold_starts};
  };
  const Count pinned = cell(0.0);
  const Count churned = cell(0.5);
  EXPECT_EQ(pinned.boots, 130u);
  ASSERT_GT(churned.boots, pinned.boots + 300);
  ASSERT_GE(churned.allocations, pinned.allocations);
  const double per_boot =
      static_cast<double>(churned.allocations - pinned.allocations) /
      static_cast<double>(churned.boots - pinned.boots);
  EXPECT_LT(per_boot, 1.0) << pinned.allocations << " allocations for "
                           << pinned.boots << " boots, "
                           << churned.allocations << " for "
                           << churned.boots;
}

TEST(AllocationCount, MaxArrivalRateAllocatesNothing) {
  // The controller's λ_max bisection on every tick: dozens of M/M/N
  // quantiles, each a log-sum-exp over n + 1 terms.
  double sum = 0.0;
  const std::uint64_t before = allocations();
  for (const int n : {1, 4, 12, 40, 160}) {
    const auto lambda = core::queueing::max_arrival_rate(n, 20.0, 0.2, 0.95);
    if (lambda.has_value()) sum += *lambda;
  }
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_GT(sum, 0.0);
}

TEST(AllocationCount, PcrRefitAllocatesNothing) {
  // A WeightEstimator at the controller's defaults (512-sample window, a
  // refit every 8 heartbeats). The first 600 heartbeats fill the window and
  // see every refit keep one component (three collinear features); from
  // heartbeat 900 the features are independent, so the counted refits also
  // keep more components than any warm-up fit did. The window's ring, the
  // model and the fit scratch must all be reused.
  core::WeightEstimator est(core::WeightEstimatorConfig{}, 0.1, 0.002);
  sim::Rng rng(21);
  auto beat = [&](int i) {
    const double a = 0.1 + 0.2 * rng.uniform();
    const core::Features x =
        i < 900 ? core::Features{a, 0.5 * a + 0.05, 2.0 * a}
                : core::Features{a, 0.1 + 0.1 * rng.uniform(),
                                 0.1 + 0.05 * rng.uniform()};
    est.observe(x, x[0] + 0.3 * x[1] + 0.2 * x[2] + 0.002 * rng.uniform());
  };
  int i = 0;
  for (; i < 600; ++i) beat(i);
  ASSERT_TRUE(est.calibrated());
  ASSERT_EQ(est.retained_components(), 1u);
  const std::size_t refits_before = est.refits();
  const std::uint64_t before = allocations();
  std::size_t most_retained = 0;
  for (; i < 3000; ++i) {
    beat(i);
    most_retained = std::max(most_retained, est.retained_components());
  }
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(est.refits() - refits_before, 300u);
  EXPECT_GT(most_retained, 1u);
}

TEST(AllocationCount, ControllerTickAllocatesNothing) {
  // One controller on flat latency surfaces, heartbeats and ticks in both
  // modes over loads, pressures and container counts (1 to 300, past the
  // log-factorial table). Counted after 600 heartbeats have filled the PCR
  // window.
  const auto surface = [](double slope) {
    return core::LatencySurface({0.0, 1.0}, {0.0, 1000.0},
                                {0.1, 0.1, 0.1 + slope, 0.1 + slope});
  };
  core::ServiceArtifacts art;
  art.solo_latency_s = 0.1;
  art.alpha_s = 0.0;
  art.surfaces[core::kCpuDim] = surface(0.2);
  art.surfaces[core::kIoDim] = surface(0.05);
  art.surfaces[core::kNetDim] = surface(0.01);
  art.pressure_per_qps = {0.001, 0.0, 0.0};
  core::DeploymentController c(core::ControllerConfig{}, 0.5, art);
  sim::Rng rng(22);
  std::uint64_t switches = 0;
  auto step = [&](int i) {
    const std::array<double, core::kNumResources> p = {
        rng.uniform(), 0.5 * rng.uniform(), 0.2 * rng.uniform()};
    const double load = 5.0 + 40.0 * rng.uniform();
    const bool serverless = (i / 50) % 2 == 1;
    c.observe_latency(load, p, 0.1 + 0.2 * p[0] + 0.001 * rng.uniform(),
                      serverless);
    core::ServiceTickInput in;
    in.mode = serverless ? core::DeployMode::kServerless
                         : core::DeployMode::kIaas;
    in.load_qps = load;
    in.forecast_load_qps = load * 1.1;
    in.total_pressures = p;
    in.available_containers = 1 + (i * 7) % 300;
    if (i % 3 == 0) in.observed_p95 = 0.3;
    if (c.tick(in) != core::SwitchDecision::kStay) ++switches;
  };
  int i = 0;
  for (; i < 600; ++i) step(i);
  ASSERT_TRUE(c.estimator().calibrated());
  const std::uint64_t before = allocations();
  for (; i < 2600; ++i) step(i);
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_TRUE(c.last_evaluation().has_value());
  EXPECT_GT(switches, 0u);
}

TEST(AllocationCount, SharedNodeDayAllocatesLittlePerQuery) {
  // Two managed tenants at full peak (float and dd, half a day apart) on
  // one node, run for one and for two diurnal days. The second day repeats
  // the first's traffic (dd switches there and back again), so the
  // difference is the steady cost of a day's queries through the
  // generator, the router, the runtimes, the platforms and the control
  // loops, PCR refits included. Profiling runs before any count. Measured:
  // 0.37 per extra query; 4.37 when the router kept a map node and the
  // runtime a wrapped completion per query.
  const auto cluster = exp::default_cluster();
  exp::ProfilingConfig cfg;
  cfg.pressure_grid = {0.05, 0.45, 0.85};
  cfg.load_fractions = {0.1, 0.5, 1.0};
  cfg.cell_duration_s = 10.0;
  cfg.warmup_s = 3.0;
  cfg.threads = 1;
  const auto calibration = exp::profile_meters(cluster, cfg);
  std::vector<exp::ClusterServiceSpec> specs;
  for (int i = 0; i < 2; ++i) {
    const auto base = i == 0 ? workload::make_float() : workload::make_dd();
    specs.push_back(exp::ClusterServiceSpec{
        workload::as_tenant(base, i, 1.0),
        exp::profile_service(base, cluster, calibration, cfg), 0.5 * i});
  }
  struct Day {
    std::uint64_t allocations = 0;
    std::uint64_t queries = 0;
  };
  auto day = [&](double days) {
    exp::ClusterRunOptions opt;
    opt.period_s = 300.0;
    opt.duration_days = days;
    opt.warmup_s = 40.0;
    opt.seed = 5;
    opt.node_container_budget = 48;
    opt.meter_reserve_containers = 6;
    const std::uint64_t before = allocations();
    const auto r = exp::run_cluster(specs, cluster, calibration, opt);
    Day d{allocations() - before, 0};
    for (const auto& s : r.services) d.queries += s.queries;
    return d;
  };
  const Day one = day(1.0);
  const Day two = day(2.0);
  ASSERT_GT(two.queries, one.queries + 1000);
  ASSERT_GE(two.allocations, one.allocations);
  const double per_query =
      static_cast<double>(two.allocations - one.allocations) /
      static_cast<double>(two.queries - one.queries);
  EXPECT_LT(per_query, 1.0)
      << one.allocations << " allocations for " << one.queries
      << " queries in one day, " << two.allocations << " for "
      << two.queries << " in two";
}

}  // namespace
}  // namespace amoeba
