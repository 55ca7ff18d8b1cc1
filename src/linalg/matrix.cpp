#include "linalg/matrix.hpp"

#include <cmath>

namespace amoeba::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {
  AMOEBA_EXPECTS(rows > 0 && cols > 0);
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

double& Matrix::operator()(std::size_t r, std::size_t c) {
  AMOEBA_EXPECTS(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

double Matrix::operator()(std::size_t r, std::size_t c) const {
  AMOEBA_EXPECTS(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

std::vector<double> Matrix::col_vector(std::size_t c) const {
  AMOEBA_EXPECTS(c < cols_);
  std::vector<double> out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

double Matrix::frobenius_norm() const {
  double s = 0.0;
  for (double x : data_) s += x * x;
  return std::sqrt(s);
}

bool Matrix::is_symmetric(double tol) const {
  if (!is_square()) return false;
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = r + 1; c < cols_; ++c)
      if (std::abs((*this)(r, c) - (*this)(c, r)) > tol) return false;
  return true;
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  AMOEBA_EXPECTS(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

}  // namespace amoeba::linalg
