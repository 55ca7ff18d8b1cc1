// Small dense row-major matrix. Sized for the monitor's PCA problems
// (3-10 dimensions, hundreds of samples) — clarity over BLAS-grade speed.
#pragma once

#include <cstddef>
#include <vector>

#include "common/assert.hpp"

namespace amoeba::linalg {

class Matrix {
 public:
  /// An empty 0×0 matrix; assign() sizes it.
  Matrix() = default;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  /// Reshape to rows×cols, every element `fill`. Reuses the storage: no
  /// allocation once the matrix has held rows·cols elements.
  void assign(std::size_t rows, std::size_t cols, double fill = 0.0);
  /// Make room for `elements` values, so that assign() up to that size
  /// allocates nothing.
  void reserve(std::size_t elements) { data_.reserve(elements); }

  // Element access is inline: the Jacobi and PCR loops call it in their
  // innermost loops. The bounds check stays.
  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
    AMOEBA_EXPECTS(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    AMOEBA_EXPECTS(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Frobenius norm.
  [[nodiscard]] double frobenius_norm() const;

  [[nodiscard]] bool is_square() const noexcept { return rows_ == cols_; }
  /// True if max |a_ij - a_ji| <= tol.
  [[nodiscard]] bool is_symmetric(double tol = 1e-12) const;

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<double> data_;
};

}  // namespace amoeba::linalg
