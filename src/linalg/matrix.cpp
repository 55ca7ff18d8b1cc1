#include "linalg/matrix.hpp"

#include <cmath>

namespace amoeba::linalg {

void Matrix::assign(std::size_t rows, std::size_t cols, double fill) {
  AMOEBA_EXPECTS(rows > 0 && cols > 0);
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, fill);
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

}  // namespace amoeba::linalg
