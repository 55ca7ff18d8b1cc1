#include "workload/load_generator.hpp"

#include <gtest/gtest.h>

#include <cmath>

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
