// Small dense row-major matrix. Sized for the monitor's PCA problems
// (3-10 dimensions, hundreds of samples) — clarity over BLAS-grade speed.
#pragma once

#include <cstddef>
#include <vector>

#include "common/assert.hpp"

namespace amoeba::linalg {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  [[nodiscard]] static Matrix identity(std::size_t n);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c);
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const;

  [[nodiscard]] std::vector<double> col_vector(std::size_t c) const;

  /// Frobenius norm.
  [[nodiscard]] double frobenius_norm() const;

  [[nodiscard]] bool is_square() const noexcept { return rows_ == cols_; }
  /// True if max |a_ij - a_ji| <= tol.
  [[nodiscard]] bool is_symmetric(double tol = 1e-12) const;

  [[nodiscard]] const std::vector<double>& data() const noexcept {
    return data_;
  }

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<double> data_;
};

/// Dot product of equal-length vectors.
[[nodiscard]] double dot(const std::vector<double>& a,
                         const std::vector<double>& b);

}  // namespace amoeba::linalg
