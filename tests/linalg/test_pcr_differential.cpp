// Differential tests of the streamed-moment PCR fit against the batch fit.
//
// WeightEstimator refits from sliding-window moments. These tests feed it
// seeded heartbeat streams, keep their own copy of the window, and at every
// refit compare the estimator with the batch reference fit
// (reference_pcr.hpp) over the same window: the same number of retained
// components, and the same weights and service-time predictions within
// 1e-9 relative (1e-12 absolute floor).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "core/weight_estimator.hpp"
#include "linalg/pca.hpp"
#include "reference_pcr.hpp"
#include "sim/random.hpp"
#include "support/rng_draws.hpp"

namespace amoeba::linalg {
namespace {

using sim::testing::normal;
using core::Features;
using core::kNumResources;
using core::WeightEstimator;
using core::WeightEstimatorConfig;

constexpr double kL0 = 0.1;
constexpr double kAlpha = 0.002;

struct Heartbeat {
  Features x;
  double y;
};

// Heartbeat i of a stream; draws from the stream's own Rng.
using Stream = std::function<Heartbeat(std::size_t, sim::Rng&)>;

void expect_close(double got, double want, const char* what, std::size_t hb) {
  const double tol = std::max(1e-12, 1e-9 * std::max(std::abs(got),
                                                       std::abs(want)));
  EXPECT_NEAR(got, want, tol) << what << " at heartbeat " << hb;
}

// WeightEstimator::predict_service_time, evaluated on the reference model.
double reference_service_time(const PcrModel& model, const Features& raw,
                              const WeightEstimatorConfig& cfg) {
  Features f = raw;
  if (cfg.feature_cap_s > 0.0)
    for (double& v : f) v = std::min(v, cfg.feature_cap_s);
  double accumulated = kL0;
  for (double li : f) accumulated += std::max(0.0, li - kL0);
  accumulated += kAlpha;
  double p = model.predict(std::vector<double>(f.begin(), f.end()));
  if (cfg.feature_cap_s > 0.0 &&
      std::any_of(raw.begin(), raw.end(),
                  [&](double v) { return v >= cfg.feature_cap_s; })) {
    p = std::max(p, accumulated);
  }
  return std::max(p, kL0 + kAlpha);
}

// Feeds `heartbeats` samples of `stream` and checks every refit from
// heartbeat index `check_from` on against the batch fit over the same
// window; `checked` counts the refits compared.
void run_differential(const Stream& stream, std::size_t heartbeats,
                      const WeightEstimatorConfig& cfg, std::uint64_t seed,
                      std::size_t check_from, std::size_t& checked) {
  WeightEstimator est(cfg, kL0, kAlpha);
  std::deque<Heartbeat> window;  // clamped, as the estimator stores it
  sim::Rng rng(seed);
  checked = 0;
  for (std::size_t hb = 0; hb < heartbeats; ++hb) {
    const Heartbeat h = stream(hb, rng);
    Heartbeat stored = h;
    if (cfg.feature_cap_s > 0.0)
      for (double& v : stored.x) v = std::min(v, cfg.feature_cap_s);
    window.push_back(stored);
    if (window.size() > cfg.max_samples) window.pop_front();

    const std::size_t before = est.refits();
    est.observe(h.x, h.y);
    if (est.refits() == before || hb < check_from) continue;
    ++checked;

    Matrix x = testing::sized(window.size(), kNumResources);
    std::vector<double> y(window.size());
    for (std::size_t i = 0; i < window.size(); ++i) {
      for (std::size_t j = 0; j < kNumResources; ++j) x(i, j) = window[i].x[j];
      y[i] = window[i].y;
    }
    const PcrModel ref =
        testing::fit_pcr(x, y, cfg.min_explained, cfg.ridge);

    ASSERT_EQ(est.retained_components(), ref.pca.retained)
        << "at heartbeat " << hb;
    const auto w = est.weights();
    ASSERT_TRUE(w.has_value());
    const auto beta = ref.raw_coefficients();
    for (std::size_t j = 0; j < kNumResources; ++j)
      expect_close((*w)[j], beta[j], "weight", hb);

    const Features probes[] = {h.x, window.front().x,
                               {kL0 + 0.05, kL0 + 0.02, kL0 + 0.01}};
    for (const Features& p : probes) {
      expect_close(est.predict_service_time(p),
                   reference_service_time(ref, p, cfg), "service time", hb);
    }
  }
}

// Runs `stream` and returns the number of refits it compared.
std::size_t differential(const Stream& stream, std::size_t heartbeats,
                         const WeightEstimatorConfig& cfg, std::uint64_t seed,
                         std::size_t check_from = 0) {
  std::size_t checked = 0;
  run_differential(stream, heartbeats, cfg, seed, check_from, checked);
  return checked;
}

WeightEstimatorConfig config() {
  WeightEstimatorConfig cfg;
  cfg.min_samples = 24;
  cfg.max_samples = 512;
  cfg.refit_interval = 8;
  return cfg;
}

constexpr std::size_t kHeartbeats = 2000;  // ~4 windows: slides and resums

TEST(PcrDifferential, RandomFeatures) {
  const Stream s = [](std::size_t, sim::Rng& rng) {
    const Features x = {kL0 + 0.3 * rng.uniform(), kL0 + 0.1 * rng.uniform(),
                        kL0 + 0.05 * rng.uniform()};
    return Heartbeat{x, 0.6 * x[0] + 0.3 * x[1] + 0.2 * x[2] +
                            std::abs(normal(rng, 0.0, 0.005)) + 0.01};
  };
  EXPECT_GT(differential(s, kHeartbeats, config(), 101), 200u);
}

TEST(PcrDifferential, CollinearFeatures) {
  const Stream s = [](std::size_t, sim::Rng& rng) {
    const double a = kL0 + 0.2 * rng.uniform();
    const Features x = {a, 2.0 * a, kL0 + 0.05 * rng.uniform()};
    return Heartbeat{x, a + 0.5 * x[2] + std::abs(normal(rng, 0.0, 0.003))};
  };
  EXPECT_GT(differential(s, kHeartbeats, config(), 102), 200u);
}

TEST(PcrDifferential, FeatureConstantFromTheStart) {
  const Stream s = [](std::size_t, sim::Rng& rng) {
    const Features x = {kL0 + 0.2 * rng.uniform(), kL0 + 0.1 * rng.uniform(),
                        0.1};
    return Heartbeat{x, x[0] + 0.4 * x[1] + std::abs(normal(rng, 0.0, 0.002))};
  };
  EXPECT_GT(differential(s, kHeartbeats, config(), 103), 200u);
}

TEST(PcrDifferential, FeatureBecomesConstantAfterRegimeChange) {
  // Feature 1 varies widely, then pins at one value: once the window has
  // slid past the change its streamed variance is only rounding dust.
  const Stream s = [](std::size_t hb, sim::Rng& rng) {
    const double f1 = hb < 700 ? kL0 + 2.0 * rng.uniform() : 0.37;
    const Features x = {kL0 + 0.2 * rng.uniform(), f1,
                        kL0 + 0.05 * rng.uniform()};
    return Heartbeat{x, x[0] + 0.1 * x[1] + 0.3 * x[2] +
                            std::abs(normal(rng, 0.0, 0.002))};
  };
  EXPECT_GT(differential(s, kHeartbeats, config(), 104), 200u);
}

TEST(PcrDifferential, LargeOffsetWithTinySpread) {
  const Stream s = [](std::size_t, sim::Rng& rng) {
    const Features x = {1e3 + 1e-4 * rng.uniform(), 1e3 + 1e-4 * rng.uniform(),
                        kL0 + 0.05 * rng.uniform()};
    // The slope on the offset feature is kept moderate: a raw-space
    // prediction cancels terms of size slope·1e3, and the batch reference's
    // naive Σx/n mean is ~1e-12 off here (the streamed mean is exact to the
    // last bit), which a slope of 500 would turn into 2e-9 relative.
    return Heartbeat{x, 0.2 + 20.0 * (x[0] - 1e3) + x[2] +
                            std::abs(normal(rng, 0.0, 0.001))};
  };
  EXPECT_GT(differential(s, kHeartbeats, config(), 105), 200u);
}

TEST(PcrDifferential, CapClampedSaturationRuns) {
  // Feature 0 saturates in runs of 40 heartbeats, and for one run longer
  // than the window, so it is clamped to the cap for whole windows.
  auto cfg = config();
  cfg.feature_cap_s = 0.5;
  const Stream s = [](std::size_t hb, sim::Rng& rng) {
    const bool saturated = (hb / 40) % 3 == 1 || (hb >= 800 && hb < 1500);
    const Features x = {saturated ? 60.0 : kL0 + 0.3 * rng.uniform(),
                        kL0 + 0.1 * rng.uniform(),
                        saturated ? 0.8 : kL0 + 0.02 * rng.uniform()};
    return Heartbeat{x, std::min(x[0], 0.5) + 0.2 * x[1] +
                            std::abs(normal(rng, 0.0, 0.003))};
  };
  EXPECT_GT(differential(s, kHeartbeats, cfg, 106), 200u);
}

TEST(PcrDifferential, ExactResumClearsRegimeChangeDust) {
  // Feature 0 spreads over 1.0, then over 1e-4 from heartbeat 600 on.
  // Removing the wide samples leaves rounding dust ~1e-16 of their second
  // moment in the streamed moments, far above 1e-9 of the narrow regime's.
  // The window holds only narrow samples from heartbeat 1112; the exact
  // re-sum at heartbeat index 1535 (every 512) must clear the dust, so every
  // refit from there on matches the batch fit.
  const Stream s = [](std::size_t hb, sim::Rng& rng) {
    const double spread = hb < 600 ? 1.0 : 1e-4;
    const Features x = {0.5 + spread * rng.uniform(),
                        kL0 + 0.1 * rng.uniform(), kL0 + 0.05 * rng.uniform()};
    return Heartbeat{x, x[0] + 0.3 * x[1] + 0.2 * x[2] +
                            std::abs(normal(rng, 0.0, 0.002))};
  };
  EXPECT_EQ(differential(s, 1600, config(), 108, 1535), 9u);
}

TEST(PcrDifferential, FirstRefitAtExactlyMinSamples) {
  // Feature 1 is constant, so the first fit also meets a constant feature.
  const Stream s = [](std::size_t, sim::Rng& rng) {
    const Features x = {kL0 + 0.2 * rng.uniform(), kL0,
                        kL0 + 0.01 * rng.uniform()};
    return Heartbeat{x, x[0] + std::abs(normal(rng, 0.0, 0.002))};
  };
  const auto cfg = config();
  EXPECT_EQ(differential(s, cfg.min_samples - 1, cfg, 107), 0u);
  EXPECT_EQ(differential(s, cfg.min_samples, cfg, 107), 1u);
}

// The streamed moments against a fresh two-pass sum over the same window,
// just before each of the estimator's exact re-sums (every max_samples
// heartbeats), on a long stream whose level and spread change in regimes.
TEST(WindowMoments, DriftBoundedBeforeEachExactResum) {
  constexpr std::size_t kWindow = 512;
  constexpr std::size_t kBeats = 24 * kWindow;
  WindowMoments streamed(kNumResources);
  std::deque<Heartbeat> window;
  sim::Rng rng(109);
  std::size_t checks = 0;
  for (std::size_t hb = 1; hb <= kBeats; ++hb) {
    // Regimes of 700 heartbeats (not aligned to the window): each feature's
    // level moves by up to a few standard deviations and its spread by up
    // to 2x. Removing an old regime cancels up to the mixed window's larger
    // second moment, so the streamed error scales with that contrast.
    constexpr double kLevels[] = {0.10, 0.12, 0.15, 0.12};
    constexpr double kSpreads[] = {0.02, 0.04, 0.03};
    const std::size_t regime = hb / 700;
    const double level = kLevels[regime % 4];
    const double spread = kSpreads[regime % 3];
    const Features x = {level + spread * rng.uniform(),
                        0.5 * level + spread * rng.uniform(),
                        level + 0.5 * spread * rng.normal()};
    const Heartbeat h{x, 0.5 * x[0] + 0.2 * x[2] + 0.01 * rng.uniform()};
    window.push_back(h);
    streamed.add(h.x, h.y);
    if (window.size() > kWindow) {
      streamed.remove_oldest(window.front().x, window.front().y);
      window.pop_front();
    }
    if (hb % kWindow != 0) continue;

    // Fresh two-pass sums over the window.
    const auto n = static_cast<double>(window.size());
    Features mean{};
    double ymean = 0.0;
    for (const auto& s : window) {
      for (std::size_t a = 0; a < kNumResources; ++a) mean[a] += s.x[a];
      ymean += s.y;
    }
    for (double& m : mean) m /= n;
    ymean /= n;
    double co[kNumResources][kNumResources] = {};
    double cross[kNumResources] = {};
    double yy = 0.0;
    for (const auto& s : window) {
      const double dy = s.y - ymean;
      yy += dy * dy;
      for (std::size_t a = 0; a < kNumResources; ++a) {
        cross[a] += (s.x[a] - mean[a]) * dy;
        for (std::size_t b = 0; b < kNumResources; ++b)
          co[a][b] += (s.x[a] - mean[a]) * (s.x[b] - mean[b]);
      }
    }

    ASSERT_EQ(streamed.count(), window.size());
    constexpr double kRel = 1e-12;
    EXPECT_NEAR(streamed.y_mean(), ymean, kRel * std::sqrt(yy / n));
    for (std::size_t a = 0; a < kNumResources; ++a) {
      EXPECT_NEAR(streamed.mean(a), mean[a], kRel * std::sqrt(co[a][a] / n))
          << "feature " << a << " at heartbeat " << hb;
      EXPECT_NEAR(streamed.cross_moment(a), cross[a],
                  kRel * std::sqrt(co[a][a] * yy))
          << "feature " << a << " at heartbeat " << hb;
      for (std::size_t b = 0; b < kNumResources; ++b) {
        EXPECT_NEAR(streamed.comoment(a, b), co[a][b],
                    kRel * std::sqrt(co[a][a] * co[b][b]))
            << "pair " << a << "," << b << " at heartbeat " << hb;
      }
    }
    ++checks;
    streamed.resum(window);
  }
  EXPECT_EQ(checks, kBeats / kWindow);
}

}  // namespace
}  // namespace amoeba::linalg
