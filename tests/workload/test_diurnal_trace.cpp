#include "workload/diurnal_trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace amoeba::workload {
namespace {

DiurnalTraceConfig base_config() {
  DiurnalTraceConfig cfg;
  cfg.period_s = 1000.0;
  cfg.peak_qps = 100.0;
  cfg.trough_fraction = 0.25;
  return cfg;
}

/// The base (noise-free) rate at `n` uniform points over one day.
std::vector<double> sample_day(const DiurnalTrace& trace, std::size_t n) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = trace.base_rate(trace.config().period_s *
                             static_cast<double>(i) / static_cast<double>(n));
  }
  return out;
}

TEST(DiurnalTrace, PeakAndTroughRespected) {
  DiurnalTrace trace(base_config());
  const auto day = sample_day(trace, 500);
  const double mx = *std::max_element(day.begin(), day.end());
  const double mn = *std::min_element(day.begin(), day.end());
  EXPECT_NEAR(mx, 100.0, 1.0);          // reaches the peak
  EXPECT_NEAR(mn, 25.0, 1.0);           // trough at 25% (paper: < 30%)
  EXPECT_LT(mn / mx, 0.30);
}

TEST(DiurnalTrace, TwoRushesPresent) {
  DiurnalTrace trace(base_config());
  const auto day = sample_day(trace, 1000);
  // Count local maxima above 60% of peak with some hysteresis.
  int rushes = 0;
  bool in_rush = false;
  for (double v : day) {
    if (!in_rush && v > 60.0) {
      ++rushes;
      in_rush = true;
    } else if (in_rush && v < 40.0) {
      in_rush = false;
    }
  }
  EXPECT_EQ(rushes, 2);
}

TEST(DiurnalTrace, PeriodicAcrossDays) {
  DiurnalTrace trace(base_config());
  for (double t : {10.0, 250.0, 600.0, 999.0}) {
    EXPECT_NEAR(trace.base_rate(t), trace.base_rate(t + 1000.0), 1e-9);
    EXPECT_NEAR(trace.base_rate(t), trace.base_rate(t + 5000.0), 1e-9);
  }
}

TEST(DiurnalTrace, PhaseShiftsPattern) {
  auto cfg = base_config();
  DiurnalTrace a(cfg);
  cfg.phase = 0.5;
  DiurnalTrace b(cfg);
  EXPECT_NEAR(a.base_rate(0.0), b.base_rate(500.0), 1e-9);
}

TEST(DiurnalTrace, NoiseStaysUnderDeclaredBound) {
  auto cfg = base_config();
  cfg.noise_cv = 0.3;
  DiurnalTrace trace(cfg, 7);
  for (int i = 0; i < 2000; ++i) {
    const double t = i * 0.77;
    EXPECT_LE(trace.rate(t), trace.max_rate() * (1.0 + 1e-12));
    EXPECT_GE(trace.rate(t), 0.0);
  }
}

TEST(DiurnalTrace, NoiseFreeRateEqualsBaseRate) {
  DiurnalTrace trace(base_config());
  for (double t : {1.0, 123.0, 789.0}) {
    EXPECT_DOUBLE_EQ(trace.rate(t), trace.base_rate(t));
  }
}

TEST(DiurnalTrace, NoiseIsDeterministicPerSeed) {
  auto cfg = base_config();
  cfg.noise_cv = 0.2;
  DiurnalTrace a(cfg, 11), b(cfg, 11), c(cfg, 12);
  EXPECT_DOUBLE_EQ(a.rate(123.0), b.rate(123.0));
  EXPECT_NE(a.rate(123.0), c.rate(123.0));
}

TEST(DiurnalTrace, OutOfOrderQueriesMatchAFreshTrace) {
  // rate() memoizes the noise factor of the last interval it saw. Walking
  // the day backwards, jumping between intervals and revisiting one must
  // give, bit for bit, what a trace that never saw another time gives.
  auto cfg = base_config();
  cfg.noise_cv = 0.3;
  cfg.noise_interval_s = 10.0;
  const DiurnalTrace walked(cfg, 5);
  std::vector<double> times;
  for (int i = 400; i >= 0; --i) times.push_back(2.5 * i);
  for (const double t : {12.0, 987.0, 12.5, 19.999, 20.0, 3456.0, 12.0}) {
    times.push_back(t);
  }
  for (const double t : times) {
    const DiurnalTrace fresh(cfg, 5);
    const double expected = fresh.rate(t);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(walked.rate(t)),
              std::bit_cast<std::uint64_t>(expected))
        << "t = " << t;
  }
}

TEST(DiurnalTrace, ConfigValidation) {
  auto cfg = base_config();
  cfg.trough_fraction = 0.0;
  EXPECT_THROW(DiurnalTrace{cfg}, ContractError);
  cfg = base_config();
  cfg.peak_width = 0.6;
  EXPECT_THROW(DiurnalTrace{cfg}, ContractError);
  cfg = base_config();
  cfg.period_s = -1.0;
  EXPECT_THROW(DiurnalTrace{cfg}, ContractError);
}

TEST(DiurnalTrace, WrapsExactlyAtTheDayBoundary) {
  DiurnalTrace trace(base_config());
  EXPECT_DOUBLE_EQ(trace.base_rate(0.0), trace.base_rate(1000.0));
  EXPECT_DOUBLE_EQ(trace.base_rate(0.0), trace.base_rate(17.0 * 1000.0));
}

TEST(DiurnalTrace, DayEdgeIsContinuous) {
  // The two-rush pattern must not jump across the midnight seam: rates just
  // before and just after the day boundary agree to first order.
  DiurnalTrace trace(base_config());
  const double period = trace.config().period_s;
  const double eps = 1e-6 * period;
  EXPECT_NEAR(trace.base_rate(period - eps), trace.base_rate(period + eps),
              1e-2);
  // Same seam under a phase shift, which moves the pattern but not the wrap.
  auto cfg = base_config();
  cfg.phase = 0.37;
  DiurnalTrace shifted(cfg);
  EXPECT_NEAR(shifted.base_rate(period - eps), shifted.base_rate(period + eps),
              1e-2);
}

TEST(DiurnalTrace, FarFutureDaysKeepThePattern) {
  // Wraparound must stay exact after many simulated days, not drift with
  // floating-point accumulation over absolute time.
  DiurnalTrace trace(base_config());
  for (double t : {10.0, 350.0, 780.0, 999.5}) {
    EXPECT_NEAR(trace.base_rate(t), trace.base_rate(t + 365.0 * 1000.0),
                1e-6);
  }
}

/// Counts a violation of lo <= rate(t) <= hi <= max_rate * (1 + 1e-9)
/// (with lo > 0) at `t`, and reports the first few.
void check_bounds(const DiurnalTrace& trace, double t, int& violations) {
  const RateBounds b = trace.rate_bounds(t);
  const double r = trace.rate(t);
  if (b.lo > 0.0 && b.lo <= r && r <= b.hi &&
      b.hi <= trace.max_rate() * (1.0 + 1e-9)) {
    return;
  }
  if (++violations <= 3) {
    ADD_FAILURE() << "t=" << t << " lo=" << b.lo << " rate=" << r
                  << " hi=" << b.hi << " max=" << trace.max_rate();
  }
}

TEST(DiurnalTrace, RateBoundsContainRate) {
  std::vector<std::pair<std::string, DiurnalTraceConfig>> cases;
  cases.emplace_back("base", base_config());
  auto noisy = base_config();
  noisy.noise_cv = 0.3;
  noisy.noise_interval_s = 7.0;
  cases.emplace_back("noisy", noisy);
  auto shifted = noisy;
  shifted.phase = 0.37;
  cases.emplace_back("phase 0.37", shifted);
  shifted.phase = -0.61;
  cases.emplace_back("phase -0.61", shifted);
  auto wrapped = base_config();
  wrapped.morning_center = 0.0;
  wrapped.evening_center = 1.0;
  cases.emplace_back("centres at 0 and 1", wrapped);
  auto wide = noisy;
  wide.peak_width = 0.4999;
  cases.emplace_back("width near 0.5", wide);
  // Wide but unclipped rushes: the rate is lowest at a rush's antipode,
  // inside a bin, and far from flat there.
  auto broad = noisy;
  broad.peak_width = 0.3;
  broad.evening_relative = 0.1;
  cases.emplace_back("broad rushes", broad);
  auto narrow = base_config();
  narrow.peak_width = 0.002;
  cases.emplace_back("narrow rushes", narrow);
  auto flat = noisy;
  flat.trough_fraction = 1.0;
  cases.emplace_back("trough 1", flat);
  auto equal = base_config();
  equal.evening_relative = 1.0;
  equal.morning_center = 0.25;
  equal.evening_center = 0.75;
  cases.emplace_back("evening 1, antipodal rushes", equal);

  for (const auto& [name, cfg] : cases) {
    SCOPED_TRACE(name);
    const DiurnalTrace trace(cfg, 5);
    const double period = cfg.period_s;
    int violations = 0;
    // Dense: 3 days at a step that does not divide the bins.
    for (double t = 0.0; t < 3.0 * period; t += period / 9973.3) {
      check_bounds(trace, t, violations);
    }
    // Bin edges: the times whose day fraction is k/256 on days 0, 1 and
    // 40, and their neighbours a few ulps and 1e-9 of a day either side.
    for (const double day : {0.0, 1.0, 40.0}) {
      for (int k = 0; k <= 256; ++k) {
        double frac = static_cast<double>(k) / 256.0 - cfg.phase;
        frac -= std::floor(frac);
        const double edge = (day + frac) * period;
        for (const double off : {-1e-9, 0.0, 1e-9}) {
          double t = edge + off * period;
          if (t < 0.0) continue;
          check_bounds(trace, t, violations);
          double up = t, down = t;
          for (int step = 0; step < 4; ++step) {
            up = std::nextafter(up, 2.0 * up + 1.0);
            check_bounds(trace, up, violations);
            if (down > 0.0) {
              down = std::nextafter(down, 0.0);
              check_bounds(trace, down, violations);
            }
          }
        }
      }
    }
    EXPECT_EQ(violations, 0);
  }
}

}  // namespace
}  // namespace amoeba::workload
