// Principal Component Analysis and Principal Component Regression.
//
// The multi-resource contention monitor (paper §VI-A) uses PCA to merge
// closely-related per-resource interference signals into a few pairwise-
// uncorrelated components, then regresses observed latency on component
// scores and maps the coefficients back to per-resource weights for Eq. 6.
//
// Both fits run from the sufficient statistics of a sliding sample window
// (`WindowMoments`), so a refit costs O(d²) work on the d×d moments plus
// an O(d³) eigendecomposition, whatever the window size. A fit writes into
// a model and a `FitScratch` the caller keeps: refitting the same
// dimension reuses their storage and allocates nothing.
#pragma once

#include <cstddef>
#include <iterator>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "linalg/jacobi_eigen.hpp"
#include "linalg/matrix.hpp"

namespace amoeba::linalg {

/// Centred first and second moments of a FIFO window of (x, y) samples,
/// x with `dims()` features: n, the feature means, the mean of y, the
/// co-moment Σ(x−x̄)(x−x̄)ᵀ and the cross-moment Σ(x−x̄)(y−ȳ). Samples
/// enter with `add` and leave oldest-first with `remove_oldest`, each a
/// Welford-style centred update in O(d²); `resum` rebuilds every moment
/// exactly from the window to bound the rounding drift of long streams.
/// Values are taken relative to a per-variable shift (the first sample
/// added to the empty window, or the oldest one at the last `resum`), so
/// an offset far from zero costs no precision in the centred sums.
///
/// It also counts, per feature, how many of the newest samples equal the
/// newest value, so a feature whose window values are all equal is
/// detected exactly (`constant`) rather than by a variance threshold that
/// streamed rounding dust could cross.
class WindowMoments {
 public:
  explicit WindowMoments(std::size_t dims);

  /// Add the newest sample; `x.size()` must equal `dims()`.
  void add(std::span<const double> x, double y);
  /// Drop the oldest sample of the window (the one added longest ago that
  /// is still in it); `x`, `y` must be its values. Requires count() >= 1.
  void remove_oldest(std::span<const double> x, double y);

  /// Recompute every moment from `window` (oldest first) with two passes.
  /// Each element exposes `.x` (dims() values) and `.y`.
  template <class Window>
  void resum(const Window& window);

  [[nodiscard]] std::size_t dims() const noexcept { return d_; }
  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean(std::size_t a) const {
    AMOEBA_EXPECTS(a < d_);
    return shift_[a] + mean_[a];
  }
  [[nodiscard]] double y_mean() const noexcept {
    return shift_[d_] + mean_[d_];
  }
  /// Σ(x_a − x̄_a)(x_b − x̄_b) over the window.
  [[nodiscard]] double comoment(std::size_t a, std::size_t b) const {
    AMOEBA_EXPECTS(a < d_ && b < d_);
    return co_[a * (d_ + 1) + b];
  }
  /// Σ(x_a − x̄_a)(y − ȳ) over the window.
  [[nodiscard]] double cross_moment(std::size_t a) const {
    AMOEBA_EXPECTS(a < d_);
    return co_[a * (d_ + 1) + d_];
  }
  /// True iff every window value of feature `a` is equal.
  [[nodiscard]] bool constant(std::size_t a) const {
    AMOEBA_EXPECTS(a < d_ && n_ >= 1);
    return run_[a] == n_;
  }

 private:
  void reset();
  void mirror();
  void track_runs(std::span<const double> x);

  // Variables are the d features followed by y; co_ is their
  // (d+1)×(d+1) row-major co-moment, kept symmetric.
  std::size_t d_;
  std::size_t n_ = 0;
  std::vector<double> shift_;
  std::vector<double> mean_;  ///< window mean minus shift_
  std::vector<double> co_;
  std::vector<double> last_;      ///< newest value of each feature
  std::vector<std::size_t> run_;  ///< trailing samples equal to last_
};

struct PcaModel {
  std::vector<double> means;          ///< feature means (size d)
  std::vector<double> scales;         ///< feature std-devs used to standardize
  std::vector<double> eigenvalues;    ///< descending, size d
  Matrix components;                  ///< d×d; column i = i-th component
  std::size_t retained = 0;           ///< components kept

  /// Fraction of total variance explained by the first `retained`
  /// components.
  [[nodiscard]] double explained_variance() const;

  /// The score of a raw observation (means.size() values) on component
  /// `c` < retained: its projection onto the component after
  /// standardization.
  [[nodiscard]] double score(std::size_t c, std::span<const double> x) const;
};

/// Working storage of a PCA or PCR fit. The first fit sizes it; later fits
/// of the same dimension reuse it.
struct FitScratch {
  Matrix comoment;  ///< Σ z zᵀ over the window, z the standardized features
  Matrix corr;      ///< the correlation matrix; decomposed in place
  EigenDecomposition eig;
  Matrix sv;    ///< (n−1)R·V_k
  Matrix gram;  ///< the PCR normal equations, then their Cholesky factor
};

/// Fit PCA on the window summarised by `m` (count() >= 2) into `model`.
/// Features are standardized (zero mean, unit variance); a constant or
/// zero-variance feature keeps scale 1, and a constant one adds nothing to
/// the correlation matrix. `min_explained` in (0, 1] selects how many
/// components to retain.
void fit_pca(const WindowMoments& m, PcaModel& model, FitScratch& scratch,
             double min_explained = 0.95);

struct PcrModel {
  PcaModel pca;
  std::vector<double> score_coeffs;  ///< regression coeffs in PC space
  double intercept = 0.0;

  /// The regression's prediction for a raw observation (pca.means.size()
  /// values).
  [[nodiscard]] double predict(std::span<const double> x) const;

  /// Equivalent coefficients in the original feature space, i.e. β such
  /// that prediction ≈ intercept_raw + βᵀx. This is what becomes the
  /// per-resource weights w in Eq. 6.
  [[nodiscard]] std::vector<double> raw_coefficients() const;
};

/// Principal-component regression of y on x over the window summarised by
/// `m` (count() >= 2; >= dims()+1 recommended), into `model`. The score
/// coefficients b solve the ridge normal equations
///     (V_kᵀ·(n−1)R·V_k + ridge·I)·b = V_kᵀ·D⁻¹·Σ(x−x̄)(y−ȳ),
/// R the correlation matrix, D the scales, V_k the retained components;
/// the intercept is ȳ. `ridge >= 0`.
void fit_pcr(const WindowMoments& m, PcrModel& model, FitScratch& scratch,
             double min_explained = 0.95, double ridge = 1e-8);

template <class Window>
void WindowMoments::resum(const Window& window) {
  reset();
  const std::size_t vars = d_ + 1;
  const auto value = [this](const auto& s, std::size_t a) {
    return a < d_ ? s.x[a] : s.y;
  };
  for (const auto& s : window) {
    AMOEBA_EXPECTS(std::size(s.x) == d_);
    if (n_ == 0) {
      for (std::size_t a = 0; a < vars; ++a) shift_[a] = value(s, a);
    }
    ++n_;
    for (std::size_t a = 0; a < vars; ++a) mean_[a] += value(s, a) - shift_[a];
    track_runs(s.x);
  }
  if (n_ == 0) return;
  for (double& m : mean_) m /= static_cast<double>(n_);
  for (const auto& s : window) {
    for (std::size_t a = 0; a < vars; ++a) {
      const double da = (value(s, a) - shift_[a]) - mean_[a];
      for (std::size_t b = a; b < vars; ++b) {
        co_[a * vars + b] += da * ((value(s, b) - shift_[b]) - mean_[b]);
      }
    }
  }
  mirror();
}

}  // namespace amoeba::linalg
