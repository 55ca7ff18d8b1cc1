#include "linalg/pca.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>

#include "reference_linalg.hpp"
#include "sim/random.hpp"
#include "support/rng_draws.hpp"

namespace amoeba::linalg {
namespace {

using sim::testing::normal;
using testing::dot;
using testing::row_vector;
using testing::sized;

PcaModel pca_of(const WindowMoments& m, double min_explained = 0.95) {
  PcaModel model;
  FitScratch scratch;
  fit_pca(m, model, scratch, min_explained);
  return model;
}

PcrModel pcr_of(const WindowMoments& m, double min_explained = 0.95,
                double ridge = 1e-8) {
  PcrModel model;
  FitScratch scratch;
  fit_pcr(m, model, scratch, min_explained, ridge);
  return model;
}

/// The scores of `x` on every retained component.
std::vector<double> scores_of(const PcaModel& m, const std::vector<double>& x) {
  std::vector<double> s(m.retained);
  for (std::size_t c = 0; c < m.retained; ++c) s[c] = m.score(c, x);
  return s;
}

Matrix correlated_samples(std::size_t n, sim::Rng& rng) {
  // x2 = 2 x1 + noise, x3 independent: effectively 2 latent dimensions.
  Matrix x = sized(n, 3);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = normal(rng, 0.0, 1.0);
    x(i, 0) = a;
    x(i, 1) = 2.0 * a + normal(rng, 0.0, 0.05);
    x(i, 2) = normal(rng, 0.0, 1.0);
  }
  return x;
}

WindowMoments moments_of(const Matrix& x, const std::vector<double>& y) {
  WindowMoments m(x.cols());
  for (std::size_t i = 0; i < x.rows(); ++i) m.add(row_vector(x, i), y[i]);
  return m;
}

WindowMoments moments_of(const Matrix& x) {
  return moments_of(x, std::vector<double>(x.rows(), 0.0));
}

TEST(Pca, CorrelatedFeaturesCollapseToFewComponents) {
  sim::Rng rng(31);
  const Matrix x = correlated_samples(2000, rng);
  const PcaModel m = pca_of(moments_of(x), 0.95);
  // Two latent factors explain essentially everything.
  EXPECT_LE(m.retained, 2u);
  EXPECT_GE(m.explained_variance(), 0.95);
}

TEST(Pca, EigenvaluesSumToDimensionForStandardizedData) {
  sim::Rng rng(32);
  const Matrix x = correlated_samples(2000, rng);
  const PcaModel m = pca_of(moments_of(x), 1.0);
  double sum = 0.0;
  for (double v : m.eigenvalues) sum += v;
  // Correlation matrix has trace d.
  EXPECT_NEAR(sum, 3.0, 1e-6);
}

TEST(Pca, TransformScoresAreDecorrelated) {
  sim::Rng rng(33);
  const Matrix x = correlated_samples(3000, rng);
  const PcaModel m = pca_of(moments_of(x), 1.0);
  // Accumulate score covariance.
  double s00 = 0, s01 = 0, s11 = 0, m0 = 0, m1 = 0;
  const auto n = x.rows();
  for (std::size_t i = 0; i < n; ++i) {
    const auto s = scores_of(m, row_vector(x, i));
    m0 += s[0];
    m1 += s[1];
  }
  m0 /= static_cast<double>(n);
  m1 /= static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto s = scores_of(m, row_vector(x, i));
    s00 += (s[0] - m0) * (s[0] - m0);
    s01 += (s[0] - m0) * (s[1] - m1);
    s11 += (s[1] - m1) * (s[1] - m1);
  }
  // Pairwise uncorrelated (paper §VI-A): correlation ~ 0.
  const double corr = s01 / std::sqrt(s00 * s11);
  EXPECT_NEAR(corr, 0.0, 0.02);
}

TEST(Pca, ZeroVarianceFeatureHandled) {
  Matrix x = sized(50, 2);
  sim::Rng rng(34);
  for (std::size_t i = 0; i < 50; ++i) {
    x(i, 0) = rng.uniform();
    x(i, 1) = 7.0;  // constant
  }
  const PcaModel m = pca_of(moments_of(x), 0.95);
  EXPECT_GE(m.retained, 1u);
  // Transform of any point is finite.
  const auto s = scores_of(m, {0.5, 7.0});
  for (double v : s) EXPECT_TRUE(std::isfinite(v));
}

TEST(Pca, RequiresTwoSamples) {
  Matrix x = sized(1, 2);
  EXPECT_THROW((void)pca_of(moments_of(x)), ContractError);
}

TEST(Pcr, RecoversLinearModelOnCorrelatedFeatures) {
  sim::Rng rng(35);
  const std::size_t n = 2000;
  Matrix x = correlated_samples(n, rng);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = 4.0 + 1.0 * x(i, 0) + 0.5 * x(i, 1) + 2.0 * x(i, 2) +
           normal(rng, 0.0, 0.01);
  }
  const PcrModel m = pcr_of(moments_of(x, y), 0.999);
  // Prediction accuracy is what matters (correlated coefficients are not
  // identifiable individually).
  double max_err = 0.0;
  for (std::size_t i = 0; i < 200; ++i) {
    const auto xi = row_vector(x, i);
    max_err = std::max(max_err, std::abs(m.predict(xi) - y[i]));
  }
  EXPECT_LT(max_err, 0.2);
}

TEST(Pcr, RawCoefficientsMatchPrediction) {
  sim::Rng rng(36);
  const Matrix x = correlated_samples(500, rng);
  std::vector<double> y(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    y[i] = 1.0 + x(i, 0) - x(i, 2);
  }
  const PcrModel m = pcr_of(moments_of(x, y), 0.999);
  const auto beta = m.raw_coefficients();
  const double b0 = m.intercept - dot(beta, m.pca.means);
  for (std::size_t i = 0; i < 50; ++i) {
    const auto xi = row_vector(x, i);
    const double via_raw = b0 + dot(beta, xi);
    EXPECT_NEAR(via_raw, m.predict(xi), 1e-9);
  }
}

TEST(Pcr, InterceptOnlyData) {
  Matrix x = sized(100, 2);
  std::vector<double> y(100, 5.0);
  sim::Rng rng(37);
  for (std::size_t i = 0; i < 100; ++i) {
    x(i, 0) = rng.uniform();
    x(i, 1) = rng.uniform();
  }
  const PcrModel m = pcr_of(moments_of(x, y), 0.95, 1e-6);
  EXPECT_NEAR(m.predict(std::vector<double>{0.5, 0.5}), 5.0, 1e-6);
}

TEST(Pcr, RejectsNegativeRidge) {
  sim::Rng rng(38);
  const Matrix x = correlated_samples(50, rng);
  EXPECT_THROW((void)pcr_of(moments_of(x), 0.95, -1.0), ContractError);
}

TEST(Pcr, FitMatchesRecordedAnchor) {
  // Every double of the PCR refits a sliding window sees: means, scales,
  // eigenpairs, retained count, score coefficients, intercept, predictions
  // and raw coefficients, FNV-1a over their bit patterns. Four seeded
  // streams of 3 features, a 96-sample window, a refit every 8 samples
  // from the 24th and an exact re-sum every 96: independent features,
  // collinear ones, one constant from the start, and one whose spread
  // narrows from 1.0 to 1e-4.
  struct Sample {
    std::vector<double> x;
    double y;
  };
  using Stream = std::function<Sample(std::size_t, sim::Rng&)>;
  const Stream streams[] = {
      [](std::size_t, sim::Rng& rng) {
        std::vector<double> x = {0.1 + 0.3 * rng.uniform(),
                                 0.1 + 0.1 * rng.uniform(),
                                 0.1 + 0.05 * rng.uniform()};
        return Sample{x, 0.6 * x[0] + 0.3 * x[1] + 0.2 * x[2] +
                             0.005 * rng.uniform()};
      },
      [](std::size_t, sim::Rng& rng) {
        const double a = 0.1 + 0.2 * rng.uniform();
        std::vector<double> x = {a, 2.0 * a, 0.1 + 0.05 * rng.uniform()};
        return Sample{x, a + 0.5 * x[2] + 0.003 * rng.uniform()};
      },
      [](std::size_t, sim::Rng& rng) {
        std::vector<double> x = {0.1 + 0.2 * rng.uniform(),
                                 0.1 + 0.1 * rng.uniform(), 0.1};
        return Sample{x, x[0] + 0.4 * x[1] + 0.002 * rng.uniform()};
      },
      [](std::size_t i, sim::Rng& rng) {
        const double spread = i < 150 ? 1.0 : 1e-4;
        std::vector<double> x = {0.5 + spread * rng.uniform(),
                                 0.1 + 0.1 * rng.uniform(),
                                 0.1 + 0.05 * rng.uniform()};
        return Sample{x, x[0] + 0.3 * x[1] + 0.2 * x[2] +
                             0.002 * rng.uniform()};
      },
  };
  constexpr std::size_t kWindow = 96;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto add = [&h](double v) {
    h ^= std::bit_cast<std::uint64_t>(v);
    h *= 0x100000001b3ULL;
  };
  // One model and one scratch for every fit, as WeightEstimator keeps them:
  // nothing a fit leaves behind may reach the next one's bits.
  PcrModel model;
  FitScratch scratch;
  const std::vector<double> probe = {0.15, 0.12, 0.11};
  std::size_t fits = 0;
  std::uint64_t seed = 201;
  for (const Stream& stream : streams) {
    sim::Rng rng(seed++);
    WindowMoments m(3);
    std::deque<Sample> window;
    for (std::size_t i = 1; i <= 400; ++i) {
      window.push_back(stream(i, rng));
      m.add(window.back().x, window.back().y);
      if (window.size() > kWindow) {
        m.remove_oldest(window.front().x, window.front().y);
        window.pop_front();
      }
      if (i % kWindow == 0) m.resum(window);
      if (i < 24 || i % 8 != 0) continue;
      ++fits;
      fit_pcr(m, model, scratch, 0.95, 1e-8);
      const PcaModel& pca = model.pca;
      for (const double v : pca.means) add(v);
      for (const double v : pca.scales) add(v);
      for (const double v : pca.eigenvalues) add(v);
      for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 3; ++c) add(pca.components(r, c));
      add(static_cast<double>(pca.retained));
      for (const double v : model.score_coeffs) add(v);
      add(model.intercept);
      add(model.predict(window.back().x));
      add(model.predict(probe));
      for (const double v : model.raw_coefficients()) add(v);
    }
  }
  EXPECT_EQ(fits, 4u * 48u);
  EXPECT_EQ(h, 0x36b8c1f3d9a25defULL) << std::hex << h;
}

TEST(WindowMoments, RejectsDimensionMismatchAndEmptyRemove) {
  EXPECT_THROW(WindowMoments(0), ContractError);
  WindowMoments m(2);
  const std::vector<double> three = {1.0, 2.0, 3.0};
  EXPECT_THROW(m.add(three, 1.0), ContractError);
  EXPECT_THROW(m.remove_oldest(std::vector<double>{1.0, 2.0}, 1.0),
               ContractError);
  EXPECT_THROW((void)m.constant(0), ContractError);
  m.add(std::vector<double>{1.0, 2.0}, 1.0);
  EXPECT_THROW(m.remove_oldest(three, 1.0), ContractError);
  EXPECT_THROW((void)m.comoment(0, 2), ContractError);
  EXPECT_THROW((void)m.cross_moment(2), ContractError);
}

TEST(WindowMoments, StreamedAddRemoveMatchesResum) {
  sim::Rng rng(39);
  const Matrix x = correlated_samples(300, rng);
  struct Sample {
    std::vector<double> x;
    double y;
  };
  std::vector<Sample> all;
  for (std::size_t i = 0; i < x.rows(); ++i)
    all.push_back({row_vector(x, i), x(i, 0) - x(i, 2) + rng.normal()});
  WindowMoments streamed(3);
  for (const auto& s : all) streamed.add(s.x, s.y);
  for (std::size_t i = 0; i < 100; ++i)
    streamed.remove_oldest(all[i].x, all[i].y);
  const std::vector<Sample> tail(all.begin() + 100, all.end());
  WindowMoments exact(3);
  exact.resum(tail);
  ASSERT_EQ(streamed.count(), 200u);
  ASSERT_EQ(exact.count(), 200u);
  EXPECT_NEAR(streamed.y_mean(), exact.y_mean(), 1e-12);
  for (std::size_t a = 0; a < 3; ++a) {
    EXPECT_NEAR(streamed.mean(a), exact.mean(a), 1e-12);
    EXPECT_NEAR(streamed.cross_moment(a), exact.cross_moment(a), 1e-9);
    for (std::size_t b = 0; b < 3; ++b) {
      EXPECT_NEAR(streamed.comoment(a, b), exact.comoment(a, b), 1e-9);
      EXPECT_EQ(streamed.comoment(a, b), streamed.comoment(b, a));
    }
  }
  // Removing the last sample empties the window back to zero moments.
  for (std::size_t i = 100; i < all.size(); ++i)
    streamed.remove_oldest(all[i].x, all[i].y);
  EXPECT_EQ(streamed.count(), 0u);
  EXPECT_EQ(streamed.comoment(0, 0), 0.0);
}

TEST(WindowMoments, ConstantFeatureIsDetectedExactly) {
  WindowMoments m(2);
  sim::Rng rng(40);
  // Feature 1 varies for 10 samples, then is pinned at 0.3.
  std::vector<std::vector<double>> xs;
  for (int i = 0; i < 10; ++i) xs.push_back({rng.uniform(), rng.uniform()});
  for (int i = 0; i < 10; ++i) xs.push_back({rng.uniform(), 0.3});
  for (const auto& x : xs) m.add(x, 1.0);
  EXPECT_FALSE(m.constant(0));
  EXPECT_FALSE(m.constant(1));
  for (std::size_t i = 0; i < 9; ++i) m.remove_oldest(xs[i], 1.0);
  EXPECT_FALSE(m.constant(1));  // one varying sample is still in
  m.remove_oldest(xs[9], 1.0);
  EXPECT_TRUE(m.constant(1));
  EXPECT_FALSE(m.constant(0));
  // Whatever rounding dust the streamed variance holds, the constant
  // feature keeps scale 1 and adds nothing to the correlation.
  const PcaModel pca = pca_of(m, 1.0);
  EXPECT_EQ(pca.scales[1], 1.0);
  EXPECT_EQ(pca.components(1, 0), 0.0);
  EXPECT_EQ(pca.eigenvalues[1], 0.0);
  // A new distinct value breaks the run.
  m.add(std::vector<double>{0.5, 0.31}, 1.0);
  EXPECT_FALSE(m.constant(1));
}

}  // namespace
}  // namespace amoeba::linalg
