#include "linalg/jacobi_eigen.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace amoeba::linalg {

void jacobi_eigen(Matrix& a, EigenDecomposition& out, double symmetry_tol,
                  int max_sweeps) {
  AMOEBA_EXPECTS(a.is_square());
  AMOEBA_EXPECTS_MSG(a.is_symmetric(symmetry_tol),
                     "jacobi_eigen requires a symmetric matrix");
  AMOEBA_EXPECTS_VALS(max_sweeps >= 1, max_sweeps);
  AMOEBA_EXPECTS_MSG(&a != &out.rotations && &a != &out.vectors,
                     "jacobi_eigen cannot decompose its own output storage");
  const std::size_t n = a.rows();
  Matrix& v = out.rotations;
  v.assign(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) v(i, i) = 1.0;

  auto off_diagonal_norm = [&a, n] {
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j) s += a(i, j) * a(i, j);
    return std::sqrt(2.0 * s);
  };

  const double scale = std::max(a.frobenius_norm(), 1e-300);
  bool converged = false;
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    if (off_diagonal_norm() <= 1e-14 * scale) {
      converged = true;
      break;
    }
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (std::abs(apq) <= 1e-300) continue;
        const double app = a(p, p);
        const double aqq = a(q, q);
        // Classic stable rotation angle computation.
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        for (std::size_t k = 0; k < n; ++k) {
          const double mkp = a(k, p);
          const double mkq = a(k, q);
          a(k, p) = c * mkp - s * mkq;
          a(k, q) = s * mkp + c * mkq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double mpk = a(p, k);
          const double mqk = a(q, k);
          a(p, k) = c * mpk - s * mqk;
          a(q, k) = s * mpk + c * mqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  // Cyclic Jacobi converges quadratically; hitting the sweep cap with a
  // large off-diagonal residual means the input was pathological and the
  // eigenpairs below would silently mis-weight the PCA calibration.
  if (!converged) {
    AMOEBA_ENSURES_VALS(off_diagonal_norm() <= 1e-8 * scale,
                        off_diagonal_norm(), scale, max_sweeps);
  }

  // Sort eigenpairs by descending eigenvalue.
  std::vector<std::size_t>& order = out.order;
  order.resize(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&a](std::size_t i, std::size_t j) { return a(i, i) > a(j, j); });

  out.values.resize(n);
  out.vectors.assign(n, n);
  for (std::size_t c = 0; c < n; ++c) {
    const std::size_t k = order[c];
    out.values[c] = a(k, k);
    // Fix the sign convention: largest-magnitude component positive, so the
    // decomposition is deterministic across runs.
    std::size_t imax = 0;
    for (std::size_t r = 1; r < n; ++r)
      if (std::abs(v(r, k)) > std::abs(v(imax, k))) imax = r;
    const double sign = v(imax, k) < 0.0 ? -1.0 : 1.0;
    for (std::size_t r = 0; r < n; ++r) out.vectors(r, c) = sign * v(r, k);
  }
}

}  // namespace amoeba::linalg
