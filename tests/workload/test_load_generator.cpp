#include "workload/load_generator.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "exp/cluster.hpp"
#include "exp/scenario.hpp"
#include "reference_load_generator.hpp"
#include "workload/diurnal_trace.hpp"

namespace amoeba::workload {
namespace {

TEST(ConstantLoadGenerator, EmitsAtConfiguredRate) {
  sim::Engine engine;
  std::uint64_t arrivals = 0;
  ConstantLoadGenerator gen(engine, sim::Rng(1), 50.0,
                            [&arrivals] { ++arrivals; });
  gen.start();
  engine.run_until(100.0);
  gen.stop();
  EXPECT_NEAR(static_cast<double>(arrivals), 5000.0, 300.0);
}

TEST(ConstantLoadGenerator, StopHaltsEmission) {
  sim::Engine engine;
  std::uint64_t arrivals = 0;
  ConstantLoadGenerator gen(engine, sim::Rng(2), 100.0,
                            [&arrivals] { ++arrivals; });
  gen.start();
  engine.schedule(10.0, [&gen] { gen.stop(); });
  engine.run_until(50.0);
  EXPECT_NEAR(static_cast<double>(arrivals), 1000.0, 150.0);
  EXPECT_TRUE(engine.empty());
}

TEST(ConstantLoadGenerator, SetRateTakesEffect) {
  sim::Engine engine;
  std::uint64_t arrivals = 0;
  ConstantLoadGenerator gen(engine, sim::Rng(3), 10.0,
                            [&arrivals] { ++arrivals; });
  gen.start();
  engine.run_until(50.0);
  const auto first_phase = arrivals;
  gen.set_rate(100.0);
  engine.run_until(100.0);
  const auto second_phase = arrivals - first_phase;
  EXPECT_GT(second_phase, first_phase * 5);
}

TEST(ConstantLoadGenerator, DoubleStartIsIdempotent) {
  sim::Engine engine;
  std::uint64_t arrivals = 0;
  ConstantLoadGenerator gen(engine, sim::Rng(4), 100.0,
                            [&arrivals] { ++arrivals; });
  gen.start();
  gen.start();
  engine.run_until(10.0);
  gen.stop();
  // A doubled stream would show ~2000 arrivals.
  EXPECT_NEAR(static_cast<double>(arrivals), 1000.0, 150.0);
}

TEST(PoissonLoadGenerator, InterarrivalsAreExponential) {
  sim::Engine engine;
  std::vector<double> times;
  PoissonLoadGenerator gen(
      engine, sim::Rng(5), [](double) { return 20.0; }, 20.0,
      [&] { times.push_back(engine.now()); });
  gen.start();
  engine.run_until(500.0);
  gen.stop();
  ASSERT_GT(times.size(), 5000u);
  double sum = 0.0, sum2 = 0.0;
  for (std::size_t i = 1; i < times.size(); ++i) {
    const double gap = times[i] - times[i - 1];
    sum += gap;
    sum2 += gap * gap;
  }
  const double n = static_cast<double>(times.size() - 1);
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.05, 0.005);
  // Exponential: CV = 1.
  EXPECT_NEAR(std::sqrt(var) / mean, 1.0, 0.08);
}

TEST(PoissonLoadGenerator, ThinningTracksRateFunction) {
  sim::Engine engine;
  std::uint64_t first_half = 0, second_half = 0;
  PoissonLoadGenerator gen(
      engine, sim::Rng(6),
      [](double t) { return t < 100.0 ? 10.0 : 40.0; }, 40.0,
      [&] {
        if (engine.now() < 100.0) {
          ++first_half;
        } else {
          ++second_half;
        }
      });
  gen.start();
  engine.run_until(200.0);
  gen.stop();
  EXPECT_NEAR(static_cast<double>(first_half), 1000.0, 150.0);
  EXPECT_NEAR(static_cast<double>(second_half), 4000.0, 350.0);
}

TEST(PoissonLoadGenerator, DiurnalTraceIntegration) {
  sim::Engine engine;
  DiurnalTraceConfig cfg;
  cfg.period_s = 200.0;
  cfg.peak_qps = 50.0;
  cfg.trough_fraction = 0.25;
  DiurnalTrace trace(cfg);
  std::uint64_t arrivals = 0;
  PoissonLoadGenerator gen(
      engine, sim::Rng(7), [&trace](double t) { return trace.rate(t); },
      trace.max_rate(), [&arrivals] { ++arrivals; });
  gen.start();
  engine.run_until(200.0);
  gen.stop();
  // Expected count = integral of the trace over a day.
  double expected = 0.0;
  for (int i = 0; i < 2000; ++i) {
    expected += trace.base_rate(0.1 * static_cast<double>(i)) * 0.1;
  }
  EXPECT_NEAR(static_cast<double>(arrivals), expected, expected * 0.1);
}

TEST(PoissonLoadGenerator, ZeroRateEmitsNothing) {
  sim::Engine engine;
  std::uint64_t arrivals = 0;
  PoissonLoadGenerator gen(
      engine, sim::Rng(8), [](double) { return 0.0; }, 10.0,
      [&arrivals] { ++arrivals; });
  gen.start();
  engine.run_until(100.0);
  gen.stop();
  EXPECT_EQ(arrivals, 0u);
}

TEST(PoissonLoadGenerator, SameSeedReproducesTheArrivalSequence) {
  auto arrivals_for = [](std::uint64_t seed) {
    sim::Engine engine;
    std::vector<double> times;
    PoissonLoadGenerator gen(
        engine, sim::Rng(seed),
        [](double t) { return t < 50.0 ? 30.0 : 8.0; }, 30.0,
        [&] { times.push_back(engine.now()); });
    gen.start();
    engine.run_until(100.0);
    gen.stop();
    return times;
  };
  const auto a = arrivals_for(17);
  const auto b = arrivals_for(17);
  const auto c = arrivals_for(18);
  ASSERT_GT(a.size(), 500u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_DOUBLE_EQ(a[i], b[i]) << "arrival " << i;
  }
  EXPECT_NE(a, c);
}

TEST(ConstantLoadGenerator, SameSeedReproducesTheArrivalSequence) {
  auto arrivals_for = [](std::uint64_t seed) {
    sim::Engine engine;
    std::vector<double> times;
    ConstantLoadGenerator gen(engine, sim::Rng(seed), 40.0,
                              [&] { times.push_back(engine.now()); });
    gen.start();
    engine.run_until(50.0);
    gen.stop();
    return times;
  };
  const auto a = arrivals_for(21);
  const auto b = arrivals_for(21);
  ASSERT_GT(a.size(), 500u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_DOUBLE_EQ(a[i], b[i]) << "arrival " << i;
  }
  EXPECT_NE(a, arrivals_for(22));
}

/// Arrival times of one generator over [0, 200] s, with an optional stop
/// at `stop_at` and restart at `restart_at`, and the events it took.
struct Emission {
  std::vector<std::uint64_t> arrival_bits;
  std::uint64_t events = 0;
};

/// `rate` is what the generator's constructor takes before the arrival
/// callback: a rate function and its bound, or a trace.
template <typename Generator, typename... RateSource>
Emission emit(std::uint64_t seed, double stop_at, double restart_at,
              const RateSource&... rate) {
  sim::Engine engine;
  Emission out;
  Generator gen(engine, sim::Rng(seed), rate..., [&] {
    out.arrival_bits.push_back(std::bit_cast<std::uint64_t>(engine.now()));
  });
  gen.start();
  if (stop_at >= 0.0) {
    engine.run_until(stop_at);
    gen.stop();
    engine.run_until(restart_at);
    gen.start();
  }
  engine.run_until(200.0);
  gen.stop();
  out.events = engine.executed();
  EXPECT_EQ(gen.emitted(), out.arrival_bits.size());
  return out;
}

/// The production generator against one event per candidate: the same
/// arrival times bit for bit, from fewer engine events.
void expect_equivalent(const RateFn& rate, double max_rate,
                       std::uint64_t seed, double stop_at = -1.0,
                       double restart_at = -1.0) {
  const Emission ref = emit<testing::ReferencePoissonLoadGenerator>(
      seed, stop_at, restart_at, rate, max_rate);
  const Emission got =
      emit<PoissonLoadGenerator>(seed, stop_at, restart_at, rate, max_rate);
  ASSERT_GT(ref.arrival_bits.size(), 100u);
  EXPECT_EQ(got.arrival_bits, ref.arrival_bits);
  EXPECT_LT(got.events, ref.events);
}

/// The same for a generator built from `trace`, which decides most
/// candidates from the trace's envelope, against one event per candidate
/// on the trace's rate (a flat trace accepts every candidate, so no fewer
/// events). Each generator queries its own copy of the trace.
void expect_trace_equivalent(const DiurnalTrace& trace, std::uint64_t seed,
                             double stop_at = -1.0, double restart_at = -1.0) {
  const Emission ref = emit<testing::ReferencePoissonLoadGenerator>(
      seed, stop_at, restart_at,
      RateFn([trace](double t) { return trace.rate(t); }), trace.max_rate());
  const DiurnalTrace own = trace;
  const Emission got =
      emit<PoissonLoadGenerator>(seed, stop_at, restart_at, own);
  ASSERT_GT(ref.arrival_bits.size(), 100u);
  EXPECT_EQ(got.arrival_bits, ref.arrival_bits);
  EXPECT_LE(got.events, ref.events);
}

DiurnalTrace noisy_trace() {
  DiurnalTraceConfig cfg;
  cfg.period_s = 200.0;
  cfg.peak_qps = 40.0;
  cfg.trough_fraction = 0.2;
  cfg.noise_cv = 0.3;
  cfg.noise_interval_s = 10.0;
  return DiurnalTrace(cfg, 3);
}

TEST(PoissonLoadGenerator, MatchesOneEventPerCandidateOnANoisyTrace) {
  const DiurnalTrace trace = noisy_trace();
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    // Each generator queries its own copy: the noise memo is per trace.
    expect_equivalent([trace](double t) { return trace.rate(t); },
                      trace.max_rate(), seed);
  }
}

/// Zero 70 s of every 100 s: about 1400 rejections in a row at max_rate
/// 20, so the walk resumes from continuation events many times.
double gated_rate(double t) { return std::fmod(t, 100.0) < 30.0 ? 12.0 : 0.0; }

TEST(PoissonLoadGenerator, MatchesOneEventPerCandidateThroughZeroStretches) {
  for (const std::uint64_t seed : {4u, 5u}) {
    SCOPED_TRACE(seed);
    expect_equivalent(gated_rate, 20.0, seed);
  }
}

TEST(PoissonLoadGenerator, MatchesOneEventPerCandidateAcrossStopAndStart) {
  // Stopped mid-walk on the noisy trace, and deep inside a zero stretch
  // (mid-continuation), then restarted later: a restart continues the
  // stream the one-event-per-candidate generator would have drawn.
  const DiurnalTrace trace = noisy_trace();
  expect_equivalent([trace](double t) { return trace.rate(t); },
                    trace.max_rate(), 6, 57.3, 61.9);
  expect_equivalent(gated_rate, 20.0, 7, 65.0, 65.0);
  expect_equivalent(gated_rate, 20.0, 8, 80.0, 120.0);
}

TEST(PoissonLoadGenerator, MatchesOneEventPerCandidateFromATrace) {
  const DiurnalTrace noisy = noisy_trace();
  DiurnalTraceConfig flat_cfg = noisy.config();
  flat_cfg.trough_fraction = 1.0;
  flat_cfg.noise_cv = 0.0;
  const DiurnalTrace flat(flat_cfg);
  // Both rushes across the day's seam, and a phase that shifts them.
  DiurnalTraceConfig wrapped_cfg = noisy.config();
  wrapped_cfg.morning_center = 0.0;
  wrapped_cfg.evening_center = 0.97;
  wrapped_cfg.phase = 0.6;
  const DiurnalTrace wrapped(wrapped_cfg, 4);
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    expect_trace_equivalent(noisy, seed);
    expect_trace_equivalent(flat, seed);
    expect_trace_equivalent(wrapped, seed);
  }
}

TEST(PoissonLoadGenerator, MatchesOneEventPerCandidateFromATraceAcrossStopAndStart) {
  const DiurnalTrace trace = noisy_trace();
  expect_trace_equivalent(trace, 6, 57.3, 61.9);
  expect_trace_equivalent(trace, 10, 120.0, 120.0);
  expect_trace_equivalent(trace, 11, 12.5, 140.25);
}

/// The 12 tenants' traces of a fig17 N=12 cluster day at seed 3 (as
/// exp::SimNode::add_stream builds them), over one 1260 s day: the
/// envelope must decide at least 98% of the thinning candidates without
/// evaluating the rate, or the generator has fallen back to the exact path.
TEST(PoissonLoadGenerator, EnvelopeDecidesNearlyEveryClusterCandidate) {
  constexpr std::uint64_t kSeed = 3;
  constexpr int kTenants = 12;
  const auto tenants = exp::cluster_tenants(kTenants, 0.5);
  sim::Engine engine;
  std::vector<std::unique_ptr<DiurnalTrace>> traces;
  std::vector<std::unique_ptr<PoissonLoadGenerator>> gens;
  std::uint64_t arrivals = 0;
  for (int i = 0; i < kTenants; ++i) {
    const auto f = static_cast<std::uint64_t>(i);
    traces.push_back(std::make_unique<DiurnalTrace>(
        exp::diurnal_for(tenants[f], 1200.0, i / double{kTenants}),
        kSeed ^ (0x51u + f)));
    gens.push_back(std::make_unique<PoissonLoadGenerator>(
        engine, sim::Rng(kSeed).fork(2000 + f), *traces.back(),
        [&arrivals] { ++arrivals; }));
    gens.back()->start();
  }
  engine.run_until(1260.0);
  std::uint64_t candidates = 0, exact = 0;
  for (const auto& g : gens) {
    g->stop();
    candidates += g->candidates();
    exact += g->exact_rate_calls();
  }
  ASSERT_GT(arrivals, 100000u);
  ASSERT_GT(candidates, arrivals);
  EXPECT_LE(static_cast<double>(exact), 0.02 * static_cast<double>(candidates))
      << exact << " of " << candidates << " candidates needed the exact rate";
}

TEST(PoissonLoadGenerator, DestructorCancelsPendingEvent) {
  sim::Engine engine;
  {
    PoissonLoadGenerator gen(
        engine, sim::Rng(9), [](double) { return 5.0; }, 5.0, [] {});
    gen.start();
  }
  EXPECT_TRUE(engine.empty());
}

}  // namespace
}  // namespace amoeba::workload
