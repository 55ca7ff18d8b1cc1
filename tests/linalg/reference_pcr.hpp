// Test-only reference model of the PCA/PCR weight fit: the batch fit.
//
// This is how the weight estimator fitted before it streamed the window's
// moments, kept verbatim in arithmetic so tests can compare the moment fit
// (linalg::fit_pca / fit_pcr on a WindowMoments) against it. It copies the
// window into an n×d Matrix, standardizes and correlates it row by row, and
// solves the score regression through an n×k design matrix. Everything is
// O(window) per fit, which is why it lives here and not in src/.
#pragma once

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/assert.hpp"
#include "linalg/jacobi_eigen.hpp"
#include "linalg/matrix.hpp"
#include "linalg/pca.hpp"
#include "reference_linalg.hpp"

namespace amoeba::linalg::testing {

/// Fit PCA on row-major samples (n×d, n >= 2). Features are standardized
/// (zero mean, unit variance; zero-variance features are passed through
/// unscaled). `min_explained` in (0, 1] selects how many components to
/// retain.
[[nodiscard]] inline PcaModel fit_pca(const Matrix& samples,
                                      double min_explained = 0.95) {
  AMOEBA_EXPECTS(samples.rows() >= 2);
  AMOEBA_EXPECTS(min_explained > 0.0 && min_explained <= 1.0);
  const std::size_t n = samples.rows();
  const std::size_t d = samples.cols();

  PcaModel model;
  model.means.assign(d, 0.0);
  model.scales.assign(d, 1.0);
  for (std::size_t j = 0; j < d; ++j) {
    double m = 0.0;
    for (std::size_t i = 0; i < n; ++i) m += samples(i, j);
    model.means[j] = m / static_cast<double>(n);
  }
  for (std::size_t j = 0; j < d; ++j) {
    double s2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double dev = samples(i, j) - model.means[j];
      s2 += dev * dev;
    }
    s2 /= static_cast<double>(n - 1);
    model.scales[j] = s2 > 1e-24 ? std::sqrt(s2) : 1.0;
  }

  // Correlation matrix of standardized features.
  Matrix corr = sized(d, d, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t a = 0; a < d; ++a) {
      const double za = (samples(i, a) - model.means[a]) / model.scales[a];
      for (std::size_t b = a; b < d; ++b) {
        const double zb = (samples(i, b) - model.means[b]) / model.scales[b];
        corr(a, b) += za * zb;
      }
    }
  }
  for (std::size_t a = 0; a < d; ++a)
    for (std::size_t b = a; b < d; ++b) {
      const double v = corr(a, b) / static_cast<double>(n - 1);
      corr(a, b) = v;
      corr(b, a) = v;
    }

  EigenDecomposition eig;
  jacobi_eigen(corr, eig);
  // A correlation matrix is positive semi-definite: anything below a tiny
  // rounding margin signals a broken decomposition, not noise. Clamp only
  // the rounding dust.
  for (auto& v : eig.values) {
    AMOEBA_INVARIANT_VALS(v >= -1e-8 * static_cast<double>(d), v, d);
    v = std::max(v, 0.0);
  }
  for (std::size_t i = 1; i < eig.values.size(); ++i) {
    AMOEBA_INVARIANT_MSG(eig.values[i] <= eig.values[i - 1],
                         "eigenvalues must be sorted descending");
  }

  model.eigenvalues = eig.values;
  model.components = eig.vectors;

  const double total =
      std::accumulate(eig.values.begin(), eig.values.end(), 0.0);
  double kept = 0.0;
  model.retained = 0;
  for (std::size_t i = 0; i < d; ++i) {
    kept += eig.values[i];
    ++model.retained;
    if (total <= 0.0 || kept / total >= min_explained) break;
  }
  AMOEBA_ENSURES_VALS(model.retained >= 1 && model.retained <= d,
                      model.retained, d);
  const double explained = model.explained_variance();
  AMOEBA_ENSURES_VALS(explained >= 0.0 && explained <= 1.0 + 1e-12, explained);
  return model;
}

/// Principal-component regression of y on X (n×d, n >= d+1 recommended).
[[nodiscard]] inline PcrModel fit_pcr(const Matrix& x,
                                      const std::vector<double>& y,
                                      double min_explained = 0.95,
                                      double ridge = 1e-8) {
  AMOEBA_EXPECTS(x.rows() == y.size());
  AMOEBA_EXPECTS(x.rows() >= 2);

  PcrModel model;
  model.pca = fit_pca(x, min_explained);
  const std::size_t n = x.rows();
  const std::size_t k = model.pca.retained;

  // Design matrix of scores, plus intercept handled by centering y.
  Matrix scores = sized(n, k, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto xi = row_vector(x, i);
    for (std::size_t c = 0; c < k; ++c) scores(i, c) = model.pca.score(c, xi);
  }
  double ymean = 0.0;
  for (double v : y) ymean += v;
  ymean /= static_cast<double>(n);
  std::vector<double> yc(n);
  for (std::size_t i = 0; i < n; ++i) yc[i] = y[i] - ymean;

  model.score_coeffs = solve_least_squares(scores, yc, ridge);
  model.intercept = ymean;  // scores are zero-mean by construction
  return model;
}

}  // namespace amoeba::linalg::testing
