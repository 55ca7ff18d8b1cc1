// Symmetric positive-definite solve for the ridge-damped normal equations
// of the PCR score regression. Problem sizes here are tiny (<= 16
// unknowns), so Cholesky is appropriate and keeps the dependency surface
// at zero.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace amoeba::linalg {

/// Cholesky solve of the SPD system m x = rhs. Throws ContractError when m
/// is not positive definite within numerical tolerance.
[[nodiscard]] std::vector<double> solve_spd(const Matrix& m,
                                            const std::vector<double>& rhs);

}  // namespace amoeba::linalg
