// Symmetric eigendecomposition via the cyclic Jacobi rotation method.
// Robust and simple for the small (<= ~16x16) covariance matrices PCA sees.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace amoeba::linalg {

struct EigenDecomposition {
  /// Eigenvalues in descending order.
  std::vector<double> values;
  /// Column i of `vectors` is the unit eigenvector for values[i].
  Matrix vectors;
  /// Working storage: the accumulated rotations and the sort order. Kept
  /// here so that decomposing a matrix of the same size again allocates
  /// nothing.
  Matrix rotations;
  std::vector<std::size_t> order;
};

/// Decompose the symmetric matrix `a` into `out`, reusing out's storage.
/// The rotations run on `a` itself, which is left (nearly) diagonal, so
/// `a` may not be one of out's matrices. Throws ContractError if `a` is
/// not square or not symmetric within `symmetry_tol`.
void jacobi_eigen(Matrix& a, EigenDecomposition& out,
                  double symmetry_tol = 1e-9, int max_sweeps = 64);

}  // namespace amoeba::linalg
