#include "linalg/pca.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "linalg/least_squares.hpp"

namespace amoeba::linalg {

WindowMoments::WindowMoments(std::size_t dims)
    : d_(dims),
      shift_(dims + 1, 0.0),
      mean_(dims + 1, 0.0),
      co_((dims + 1) * (dims + 1), 0.0),
      last_(dims, 0.0),
      run_(dims, 0) {
  AMOEBA_EXPECTS(dims >= 1);
}

void WindowMoments::reset() {
  n_ = 0;
  std::fill(shift_.begin(), shift_.end(), 0.0);
  std::fill(mean_.begin(), mean_.end(), 0.0);
  std::fill(co_.begin(), co_.end(), 0.0);
  std::fill(run_.begin(), run_.end(), std::size_t{0});
}

void WindowMoments::mirror() {
  const std::size_t vars = d_ + 1;
  for (std::size_t a = 0; a < vars; ++a)
    for (std::size_t b = a + 1; b < vars; ++b)
      co_[b * vars + a] = co_[a * vars + b];
}

void WindowMoments::track_runs(std::span<const double> x) {
  for (std::size_t a = 0; a < d_; ++a) {
    if (n_ > 1 && x[a] == last_[a]) {
      ++run_[a];
    } else {
      last_[a] = x[a];
      run_[a] = 1;
    }
  }
}

void WindowMoments::add(std::span<const double> x, double y) {
  AMOEBA_EXPECTS_VALS(x.size() == d_, x.size(), d_);
  const std::size_t vars = d_ + 1;
  const auto value = [&](std::size_t a) { return a < d_ ? x[a] : y; };
  if (n_ == 0) {
    for (std::size_t a = 0; a < vars; ++a) shift_[a] = value(a);
  }
  ++n_;
  const auto n = static_cast<double>(n_);
  // Values relative to shift_; with dx = x − x̄_old: C += ((n−1)/n)·dx·dxᵀ
  // and x̄ += dx/n. Row a reads only means of variables >= a, so each mean
  // is updated after its row.
  const double f = (n - 1.0) / n;
  for (std::size_t a = 0; a < vars; ++a) {
    const double da = (value(a) - shift_[a]) - mean_[a];
    for (std::size_t b = a; b < vars; ++b) {
      co_[a * vars + b] += f * da * ((value(b) - shift_[b]) - mean_[b]);
    }
    mean_[a] += da / n;
  }
  mirror();
  track_runs(x);
}

void WindowMoments::remove_oldest(std::span<const double> x, double y) {
  AMOEBA_EXPECTS_VALS(x.size() == d_, x.size(), d_);
  AMOEBA_EXPECTS_MSG(n_ >= 1, "remove_oldest from an empty window");
  if (n_ == 1) {
    reset();
    return;
  }
  const std::size_t vars = d_ + 1;
  const auto value = [&](std::size_t a) { return a < d_ ? x[a] : y; };
  const auto n_old = static_cast<double>(n_);
  --n_;
  const auto n = static_cast<double>(n_);
  // The inverse of add: with e = x − x̄_old, C −= (n_old/n)·e·eᵀ and
  // x̄ −= e/n.
  const double f = n_old / n;
  for (std::size_t a = 0; a < vars; ++a) {
    const double ea = (value(a) - shift_[a]) - mean_[a];
    for (std::size_t b = a; b < vars; ++b) {
      co_[a * vars + b] -= f * ea * ((value(b) - shift_[b]) - mean_[b]);
    }
    mean_[a] -= ea / n;
  }
  mirror();
  for (std::size_t& r : run_) r = std::min(r, n_);
}

namespace {

// Σ z_a z_b over the window into `s`, z the standardized features: the
// co-moments divided by the scales, with every row and column of a
// constant feature exactly zero.
void standardized_comoment(const WindowMoments& m,
                           const std::vector<double>& scales, Matrix& s) {
  const std::size_t d = m.dims();
  s.assign(d, d, 0.0);
  for (std::size_t a = 0; a < d; ++a) {
    if (m.constant(a)) continue;
    for (std::size_t b = a; b < d; ++b) {
      if (m.constant(b)) continue;
      const double v = m.comoment(a, b) / (scales[a] * scales[b]);
      s(a, b) = v;
      s(b, a) = v;
    }
  }
}

}  // namespace

double PcaModel::explained_variance() const {
  const double total =
      std::accumulate(eigenvalues.begin(), eigenvalues.end(), 0.0);
  if (total <= 0.0) return 1.0;
  double kept = 0.0;
  for (std::size_t i = 0; i < retained; ++i) kept += eigenvalues[i];
  return kept / total;
}

double PcaModel::score(std::size_t c, std::span<const double> x) const {
  AMOEBA_EXPECTS(c < retained);
  AMOEBA_EXPECTS(x.size() == means.size());
  double s = 0.0;
  for (std::size_t i = 0; i < means.size(); ++i) {
    s += components(i, c) * ((x[i] - means[i]) / scales[i]);
  }
  return s;
}

void fit_pca(const WindowMoments& m, PcaModel& model, FitScratch& scratch,
             double min_explained) {
  AMOEBA_EXPECTS_VALS(m.count() >= 2, m.count());
  AMOEBA_EXPECTS(min_explained > 0.0 && min_explained <= 1.0);
  const double n1 = static_cast<double>(m.count() - 1);
  const std::size_t d = m.dims();

  model.means.resize(d);
  model.scales.assign(d, 1.0);
  for (std::size_t j = 0; j < d; ++j) model.means[j] = m.mean(j);
  for (std::size_t j = 0; j < d; ++j) {
    if (m.constant(j)) continue;
    const double s2 = m.comoment(j, j) / n1;
    if (s2 > 1e-24) model.scales[j] = std::sqrt(s2);
  }

  // Correlation matrix of standardized features.
  standardized_comoment(m, model.scales, scratch.comoment);
  Matrix& corr = scratch.corr;
  corr = scratch.comoment;
  for (std::size_t a = 0; a < d; ++a)
    for (std::size_t b = 0; b < d; ++b) corr(a, b) /= n1;

  EigenDecomposition& eig = scratch.eig;
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
}

double PcrModel::predict(std::span<const double> x) const {
  AMOEBA_EXPECTS(x.size() == pca.means.size());
  AMOEBA_EXPECTS(score_coeffs.size() == pca.retained);
  double s = 0.0;
  for (std::size_t c = 0; c < pca.retained; ++c) {
    s += pca.score(c, x) * score_coeffs[c];
  }
  return intercept + s;
}

std::vector<double> PcrModel::raw_coefficients() const {
  const std::size_t d = pca.means.size();
  std::vector<double> beta(d, 0.0);
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t c = 0; c < pca.retained; ++c) {
      beta[i] += pca.components(i, c) * score_coeffs[c];
    }
    beta[i] /= pca.scales[i];
  }
  return beta;
}

void fit_pcr(const WindowMoments& m, PcrModel& model, FitScratch& scratch,
             double min_explained, double ridge) {
  AMOEBA_EXPECTS_VALS(m.count() >= 2, m.count());
  AMOEBA_EXPECTS_VALS(ridge >= 0.0, ridge);

  fit_pca(m, model.pca, scratch, min_explained);
  const std::size_t d = m.dims();
  const std::size_t k = model.pca.retained;
  const Matrix& v = model.pca.components;
  const std::vector<double>& scales = model.pca.scales;
  // Room for every retained count up to d, so that a later fit keeping
  // more components than this one allocates nothing either.
  scratch.sv.reserve(d * d);
  scratch.gram.reserve(d * d);
  model.score_coeffs.reserve(d);

  // Normal equations of the centred score regression: scores are
  // V_kᵀ·z, so Σ s·sᵀ = V_kᵀ·(n−1)R·V_k and Σ s·(y−ȳ) = V_kᵀ·D⁻¹·Σ(x−x̄)(y−ȳ).
  // fit_pca left Σ z zᵀ = (n−1)R in scratch.comoment.
  const Matrix& s = scratch.comoment;
  Matrix& sv = scratch.sv;  // (n−1)R·V_k
  sv.assign(d, k, 0.0);
  for (std::size_t a = 0; a < d; ++a)
    for (std::size_t c = 0; c < k; ++c)
      for (std::size_t b = 0; b < d; ++b) sv(a, c) += s(a, b) * v(b, c);
  Matrix& gram = scratch.gram;
  gram.assign(k, k, 0.0);
  // The right-hand side is solved in place into the score coefficients.
  std::vector<double>& rhs = model.score_coeffs;
  rhs.assign(k, 0.0);
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t e = 0; e < k; ++e)
      for (std::size_t a = 0; a < d; ++a) gram(c, e) += v(a, c) * sv(a, e);
    gram(c, c) += ridge;
    for (std::size_t a = 0; a < d; ++a) {
      if (!m.constant(a)) rhs[c] += v(a, c) * m.cross_moment(a) / scales[a];
    }
  }

  solve_spd(gram, rhs);
  model.intercept = m.y_mean();  // scores are zero-mean by construction
}

}  // namespace amoeba::linalg
