#include "linalg/least_squares.hpp"

#include <cmath>

namespace amoeba::linalg {

void solve_spd(Matrix& m, std::span<double> b) {
  AMOEBA_EXPECTS(m.is_square());
  const std::size_t n = m.rows();
  AMOEBA_EXPECTS(b.size() == n);

  // Cholesky, m = L Lᵀ, row by row over the lower triangle: l(i, j) needs
  // m(i, j) and the factor entries left of it in rows i and j, so it can
  // take m(i, j)'s place.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = m(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= m(i, k) * m(j, k);
      if (i == j) {
        AMOEBA_EXPECTS_MSG(sum > 0.0, "matrix is not positive definite");
        m(i, i) = std::sqrt(sum);
      } else {
        m(i, j) = sum / m(j, j);
      }
    }
  }

  // Forward substitution L y = b: y[i] needs b[i] and y[k] for k < i.
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) sum -= m(i, k) * b[k];
    b[i] = sum / m(i, i);
  }
  // Back substitution Lᵀ x = y: x[i] needs y[i] and x[k] for k > i.
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = b[ii];
    for (std::size_t k = ii + 1; k < n; ++k) sum -= m(k, ii) * b[k];
    b[ii] = sum / m(ii, ii);
  }
}

}  // namespace amoeba::linalg
