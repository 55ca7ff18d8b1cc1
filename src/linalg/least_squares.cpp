#include "linalg/least_squares.hpp"

#include <cmath>

namespace amoeba::linalg {

std::vector<double> solve_spd(const Matrix& m, const std::vector<double>& rhs) {
  AMOEBA_EXPECTS(m.is_square());
  const std::size_t n = m.rows();
  AMOEBA_EXPECTS(rhs.size() == n);

  // Cholesky: m = L Lᵀ.
  Matrix l(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = m(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      if (i == j) {
        AMOEBA_EXPECTS_MSG(sum > 0.0, "matrix is not positive definite");
        l(i, i) = std::sqrt(sum);
      } else {
        l(i, j) = sum / l(j, j);
      }
    }
  }

  // Forward substitution L y = rhs.
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = rhs[i];
    for (std::size_t k = 0; k < i; ++k) sum -= l(i, k) * y[k];
    y[i] = sum / l(i, i);
  }
  // Back substitution Lᵀ x = y.
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) sum -= l(k, ii) * x[k];
    x[ii] = sum / l(ii, ii);
  }
  return x;
}

}  // namespace amoeba::linalg
