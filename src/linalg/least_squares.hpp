// Symmetric positive-definite solve for the ridge-damped normal equations
// of the PCR score regression. Problem sizes here are tiny (<= 16
// unknowns), so Cholesky is appropriate and keeps the dependency surface
// at zero.
#pragma once

#include <span>

#include "linalg/matrix.hpp"

namespace amoeba::linalg {

/// Cholesky solve of the SPD system m x = b, in place and without
/// allocating: `b` becomes x, and m's lower triangle becomes the Cholesky
/// factor L (m = L Lᵀ; the strict upper triangle is not read). Throws
/// ContractError when m is not positive definite within numerical
/// tolerance, leaving m and b partly overwritten.
void solve_spd(Matrix& m, std::span<double> b);

}  // namespace amoeba::linalg
