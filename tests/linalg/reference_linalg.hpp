// Test-only dense linear algebra over linalg::Matrix.
//
// The simulator itself needs only element access, the Jacobi eigensolver
// and the SPD solve; these are the identity, products, transposes, dot
// products and the batch least-squares solve that the tests and the batch
// PCR reference (reference_pcr.hpp) build their checks from. They go through Matrix's
// public element access, so nothing here can reach into src/.
#pragma once

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <vector>

#include "common/assert.hpp"
#include "linalg/least_squares.hpp"
#include "linalg/matrix.hpp"

namespace amoeba::linalg::testing {

/// A rows×cols matrix, every element `fill`. Matrix has no sized
/// constructor: the library sizes its matrices in place through assign().
[[nodiscard]] inline Matrix sized(std::size_t rows, std::size_t cols,
                                  double fill = 0.0) {
  Matrix m;
  m.assign(rows, cols, fill);
  return m;
}

/// Matrix from nested initializer lists (rows of equal length).
[[nodiscard]] inline Matrix from_rows(
    std::initializer_list<std::initializer_list<double>> rows) {
  AMOEBA_EXPECTS(rows.size() > 0);
  const std::size_t cols = rows.begin()->size();
  Matrix m = sized(rows.size(), cols);
  std::size_t r = 0;
  for (const auto& row : rows) {
    AMOEBA_EXPECTS_MSG(row.size() == cols, "ragged initializer");
    std::size_t c = 0;
    for (const double x : row) m(r, c++) = x;
    ++r;
  }
  return m;
}

[[nodiscard]] inline Matrix identity(std::size_t n) {
  Matrix m = sized(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

/// Column vector from values.
[[nodiscard]] inline Matrix column(const std::vector<double>& values) {
  Matrix m = sized(values.size(), 1);
  for (std::size_t i = 0; i < values.size(); ++i) m(i, 0) = values[i];
  return m;
}

[[nodiscard]] inline Matrix transposed(const Matrix& a) {
  Matrix out = sized(a.cols(), a.rows());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) out(c, r) = a(r, c);
  }
  return out;
}

[[nodiscard]] inline Matrix operator*(const Matrix& a, const Matrix& b) {
  AMOEBA_EXPECTS_MSG(a.cols() == b.rows(), "dimension mismatch in product");
  Matrix out = sized(a.rows(), b.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += aik * b(k, j);
    }
  }
  return out;
}

[[nodiscard]] inline Matrix operator*(const Matrix& a, double s) {
  Matrix out = a;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) out(r, c) *= s;
  }
  return out;
}

/// a + sign * b, elementwise.
[[nodiscard]] inline Matrix add_scaled(const Matrix& a, const Matrix& b,
                                       double sign) {
  AMOEBA_EXPECTS(a.rows() == b.rows() && a.cols() == b.cols());
  Matrix out = a;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) out(r, c) += sign * b(r, c);
  }
  return out;
}

[[nodiscard]] inline Matrix operator+(const Matrix& a, const Matrix& b) {
  return add_scaled(a, b, 1.0);
}

[[nodiscard]] inline Matrix operator-(const Matrix& a, const Matrix& b) {
  return add_scaled(a, b, -1.0);
}

/// Matrix * vector.
[[nodiscard]] inline std::vector<double> apply(const Matrix& a,
                                               const std::vector<double>& v) {
  AMOEBA_EXPECTS(v.size() == a.cols());
  std::vector<double> out(a.rows(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) out[r] += a(r, c) * v[c];
  }
  return out;
}

[[nodiscard]] inline std::vector<double> row_vector(const Matrix& a,
                                                    std::size_t r) {
  AMOEBA_EXPECTS(r < a.rows());
  std::vector<double> out(a.cols());
  for (std::size_t c = 0; c < a.cols(); ++c) out[c] = a(r, c);
  return out;
}

/// Max |a_ij - b_ij|.
[[nodiscard]] inline double max_abs_diff(const Matrix& a, const Matrix& b) {
  AMOEBA_EXPECTS(a.rows() == b.rows() && a.cols() == b.cols());
  double m = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      m = std::max(m, std::abs(a(r, c) - b(r, c)));
    }
  }
  return m;
}

/// Dot product of equal-length vectors.
[[nodiscard]] inline double dot(const std::vector<double>& a,
                                const std::vector<double>& b) {
  AMOEBA_EXPECTS(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

/// Euclidean norm.
[[nodiscard]] inline double norm2(const std::vector<double>& v) {
  return std::sqrt(dot(v, v));
}

/// Solve min ||A x - b||² + ridge ||x||² through the normal equations. A is
/// n×d (n >= 1), b has n entries, `ridge >= 0`; a small positive value
/// guards rank deficiency.
[[nodiscard]] inline std::vector<double> solve_least_squares(
    const Matrix& a, const std::vector<double>& b, double ridge = 0.0) {
  AMOEBA_EXPECTS(a.rows() >= 1);
  AMOEBA_EXPECTS(b.size() == a.rows());
  AMOEBA_EXPECTS(ridge >= 0.0);
  const Matrix at = transposed(a);
  Matrix ata = at * a;
  for (std::size_t i = 0; i < ata.rows(); ++i) ata(i, i) += ridge;
  std::vector<double> x = apply(at, b);
  solve_spd(ata, x);
  return x;
}

}  // namespace amoeba::linalg::testing
