#include "core/weight_estimator.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "sim/random.hpp"
#include "support/rng_draws.hpp"

namespace amoeba::core {
namespace {

using sim::testing::normal;

constexpr double kL0 = 0.1;

WeightEstimatorConfig pca_config() {
  WeightEstimatorConfig cfg;
  cfg.enable_pca = true;
  cfg.min_samples = 24;
  return cfg;
}

TEST(WeightEstimator, AccumulateModeBeforeCalibration) {
  WeightEstimator est(pca_config(), kL0, 0.0);
  // One resource degraded to 0.3, others at L0: NoM-style accumulation
  // predicts L0 + (0.3 - L0) = 0.3.
  const Features f = {0.3, kL0, kL0};
  EXPECT_FALSE(est.calibrated());
  EXPECT_EQ(est.retained_components(), 0u);
  EXPECT_NEAR(est.predict_service_time(f), 0.3, 1e-12);
  EXPECT_NEAR(est.mu(f), 1.0 / 0.3, 1e-9);
}

TEST(WeightEstimator, AccumulationIsPessimisticUnderJointDegradation) {
  WeightEstimator est(pca_config(), kL0, 0.0);
  // All three surfaces report 0.2: the real latency is ~0.2 (contention on
  // multiple resources overlaps), but accumulation predicts 0.4.
  const Features f = {0.2, 0.2, 0.2};
  EXPECT_NEAR(est.predict_service_time(f), 0.4, 1e-12);
}

TEST(WeightEstimator, NomModeNeverCalibrates) {
  auto cfg = pca_config();
  cfg.enable_pca = false;
  WeightEstimator est(cfg, kL0, 0.0);
  sim::Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const Features f = {kL0 + rng.uniform() * 0.2, kL0, kL0};
    est.observe(f, f[0]);
  }
  EXPECT_FALSE(est.calibrated());
  EXPECT_FALSE(est.weights().has_value());
  EXPECT_EQ(est.refits(), 0u);
}

TEST(WeightEstimator, PcaCalibrationLearnsDominantResource) {
  WeightEstimator est(pca_config(), kL0, 0.0);
  sim::Rng rng(2);
  // Ground truth: observed latency follows only resource 0; the other two
  // features fluctuate but carry no signal.
  for (int i = 0; i < 100; ++i) {
    Features f = {kL0 + rng.uniform() * 0.3, kL0 + rng.uniform() * 0.02,
                  kL0 + rng.uniform() * 0.02};
    est.observe(f, f[0] + normal(rng, 0.0, 0.002));
  }
  ASSERT_TRUE(est.calibrated());
  const Features probe = {0.35, kL0, kL0};
  EXPECT_NEAR(est.predict_service_time(probe), 0.35, 0.02);
}

TEST(WeightEstimator, PcaBeatsAccumulationOnOverlappingContention) {
  // The paper's Fig. 14/15 mechanism: when degradations overlap, the
  // calibrated model stops double counting.
  WeightEstimator pca(pca_config(), kL0, 0.0);
  auto nom_cfg = pca_config();
  nom_cfg.enable_pca = false;
  WeightEstimator nom(nom_cfg, kL0, 0.0);

  sim::Rng rng(3);
  for (int i = 0; i < 150; ++i) {
    const double bump = rng.uniform() * 0.3;
    // Correlated features: all three report the same degradation, but the
    // true latency only degrades once.
    Features f = {kL0 + bump, kL0 + 0.8 * bump, kL0 + 0.6 * bump};
    const double truth = kL0 + bump + normal(rng, 0.0, 0.002);
    pca.observe(f, truth);
    nom.observe(f, truth);
  }
  const Features probe = {kL0 + 0.2, kL0 + 0.16, kL0 + 0.12};
  const double truth = kL0 + 0.2;
  const double pca_err = std::abs(pca.predict_service_time(probe) - truth);
  const double nom_err = std::abs(nom.predict_service_time(probe) - truth);
  EXPECT_LT(pca_err, 0.03);
  EXPECT_GT(nom_err, 0.15);  // accumulation roughly triple counts
  EXPECT_LT(pca_err, nom_err / 3.0);
}

TEST(WeightEstimator, PredictionNeverBelowPhysicalFloor) {
  WeightEstimator est(pca_config(), kL0, 0.01);
  sim::Rng rng(4);
  for (int i = 0; i < 60; ++i) {
    Features f = {kL0 + rng.uniform() * 0.01, kL0, kL0};
    est.observe(f, kL0 + 0.01);
  }
  // Extrapolate far below the training range.
  const Features probe = {0.0, 0.0, 0.0};
  EXPECT_GE(est.predict_service_time(probe), kL0 + 0.01);
}

TEST(WeightEstimator, SlidingWindowBoundsMemory) {
  auto cfg = pca_config();
  cfg.max_samples = 64;
  WeightEstimator est(cfg, kL0, 0.0);
  sim::Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    Features f = {kL0 + rng.uniform() * 0.1, kL0, kL0};
    est.observe(f, f[0]);
  }
  EXPECT_LE(est.samples(), 64u);
}

TEST(WeightEstimator, RefitIntervalAmortizesFitting) {
  auto cfg = pca_config();
  cfg.refit_interval = 16;
  WeightEstimator est(cfg, kL0, 0.0);
  sim::Rng rng(6);
  for (int i = 0; i < 120; ++i) {
    Features f = {kL0 + rng.uniform() * 0.1, kL0 + rng.uniform() * 0.01,
                  kL0};
    est.observe(f, f[0]);
  }
  // 1 initial fit at 24 samples + refits every 16 thereafter: (120-24)/16=6.
  EXPECT_LE(est.refits(), 8u);
  EXPECT_GE(est.refits(), 5u);
}

TEST(WeightEstimator, FeatureCapClampsSentinels) {
  auto cfg = pca_config();
  cfg.feature_cap_s = 1.0;
  WeightEstimator est(cfg, kL0, 0.0);
  // Uncalibrated accumulation with a 60 s saturated-cell sentinel: clamped
  // to the cap, so prediction is bounded instead of absurd.
  const Features f = {60.0, kL0, kL0};
  EXPECT_NEAR(est.predict_service_time(f), kL0 + (1.0 - kL0), 1e-12);
}

TEST(WeightEstimator, CappedFeaturesNeverExplainedAway) {
  // Train the regression in a benign regime, then probe with a saturated
  // feature: the prediction must be at least the pessimistic accumulation,
  // not the regression's benign extrapolation.
  auto cfg = pca_config();
  cfg.feature_cap_s = 0.5;
  WeightEstimator est(cfg, kL0, 0.0);
  sim::Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    Features f = {kL0 + rng.uniform() * 0.05, kL0, kL0};
    est.observe(f, kL0 + 0.01);  // latency barely moves with features
  }
  ASSERT_TRUE(est.calibrated());
  const Features saturated = {5.0, kL0, kL0};
  EXPECT_GE(est.predict_service_time(saturated), 0.5);
}

TEST(WeightEstimator, ObservationValidation) {
  WeightEstimator est(pca_config(), kL0, 0.0);
  EXPECT_THROW(est.observe({0.1, 0.1, 0.1}, 0.0), ContractError);
  EXPECT_THROW(est.observe({-0.1, 0.1, 0.1}, 0.1), ContractError);
}

TEST(WeightEstimator, ConfigValidation) {
  auto cfg = pca_config();
  cfg.min_samples = 2;  // below kNumResources + 1
  EXPECT_THROW(WeightEstimator(cfg, kL0, 0.0), ContractError);
  cfg = pca_config();
  cfg.max_samples = 8;
  EXPECT_THROW(WeightEstimator(cfg, kL0, 0.0), ContractError);
  EXPECT_THROW(WeightEstimator(pca_config(), 0.0, 0.0), ContractError);
}

TEST(WeightEstimator, RejectsNegativeRidgeAndBadFeatureCapAtConstruction) {
  auto cfg = pca_config();
  cfg.ridge = -1e-8;
  EXPECT_THROW(WeightEstimator(cfg, kL0, 0.0), ContractError);
  for (const double cap : {-1.0, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    cfg = pca_config();
    cfg.feature_cap_s = cap;
    EXPECT_THROW(WeightEstimator(cfg, kL0, 0.0), ContractError) << cap;
  }
  cfg = pca_config();
  cfg.ridge = 0.0;
  cfg.feature_cap_s = 0.0;  // no clamp
  EXPECT_NO_THROW(WeightEstimator(cfg, kL0, 0.0));
}

}  // namespace
}  // namespace amoeba::core
