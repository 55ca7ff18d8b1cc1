#include "linalg/jacobi_eigen.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "reference_linalg.hpp"
#include "sim/random.hpp"

namespace amoeba::linalg {
namespace {

using namespace testing;

/// Decompose a copy of `a` into fresh storage.
EigenDecomposition eigen_of(Matrix a) {
  EigenDecomposition e;
  jacobi_eigen(a, e);
  return e;
}

TEST(Jacobi, DiagonalMatrixTrivial) {
  Matrix d = from_rows({{3.0, 0.0}, {0.0, 1.0}});
  const auto e = eigen_of(d);
  EXPECT_DOUBLE_EQ(e.values[0], 3.0);
  EXPECT_DOUBLE_EQ(e.values[1], 1.0);
}

TEST(Jacobi, Known2x2) {
  // Eigenvalues of {{2,1},{1,2}} are 3 and 1.
  Matrix a = from_rows({{2.0, 1.0}, {1.0, 2.0}});
  const auto e = eigen_of(a);
  EXPECT_NEAR(e.values[0], 3.0, 1e-12);
  EXPECT_NEAR(e.values[1], 1.0, 1e-12);
  // Eigenvector for 3 is (1,1)/sqrt(2).
  EXPECT_NEAR(std::abs(e.vectors(0, 0)), std::sqrt(0.5), 1e-10);
  EXPECT_NEAR(std::abs(e.vectors(1, 0)), std::sqrt(0.5), 1e-10);
}

TEST(Jacobi, RejectsNonSymmetric) {
  Matrix a = from_rows({{1.0, 2.0}, {0.0, 1.0}});
  EXPECT_THROW((void)eigen_of(a), ContractError);
  EXPECT_THROW((void)eigen_of(sized(2, 3)), ContractError);
  // Its own output storage cannot be decomposed in place.
  EigenDecomposition e = eigen_of(identity(2));
  EXPECT_THROW(jacobi_eigen(e.vectors, e), ContractError);
}

class JacobiRandom : public ::testing::TestWithParam<std::size_t> {};

TEST_P(JacobiRandom, ReconstructsMatrix) {
  const std::size_t n = GetParam();
  sim::Rng rng(100 + n);
  Matrix a = sized(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double v = rng.uniform(-1.0, 1.0);
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  const auto e = eigen_of(a);
  // Rebuild A = V diag(λ) Vᵀ.
  Matrix lambda = sized(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) lambda(i, i) = e.values[i];
  const Matrix rebuilt = e.vectors * lambda * transposed(e.vectors);
  EXPECT_LT(max_abs_diff(rebuilt, a), 1e-10);
}

TEST_P(JacobiRandom, EigenvectorsOrthonormal) {
  const std::size_t n = GetParam();
  sim::Rng rng(200 + n);
  Matrix a = sized(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double v = rng.uniform(-1.0, 1.0);
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  const auto e = eigen_of(a);
  const Matrix vtv = transposed(e.vectors) * e.vectors;
  EXPECT_LT(max_abs_diff(vtv, identity(n)), 1e-10);
}

TEST_P(JacobiRandom, ValuesDescending) {
  const std::size_t n = GetParam();
  sim::Rng rng(300 + n);
  Matrix a = sized(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double v = rng.uniform(-1.0, 1.0);
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  const auto e = eigen_of(a);
  for (std::size_t i = 1; i < n; ++i) {
    EXPECT_GE(e.values[i - 1], e.values[i]);
  }
}

TEST_P(JacobiRandom, ReusedStorageGivesTheSameBits) {
  // One EigenDecomposition decomposes a larger matrix, then this one: the
  // storage left by the first must not reach the second's results.
  const std::size_t n = GetParam();
  sim::Rng rng(400 + n);
  Matrix a = sized(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double v = rng.uniform(-1.0, 1.0);
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  const auto fresh = eigen_of(a);
  EigenDecomposition reused;
  Matrix big = identity(n + 2);
  big(0, n + 1) = big(n + 1, 0) = 0.5;
  jacobi_eigen(big, reused);
  Matrix work = a;
  jacobi_eigen(work, reused);
  EXPECT_EQ(reused.values, fresh.values);
  ASSERT_EQ(reused.vectors.rows(), n);
  ASSERT_EQ(reused.vectors.cols(), n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      EXPECT_EQ(reused.vectors(r, c), fresh.vectors(r, c));
}

INSTANTIATE_TEST_SUITE_P(Sizes, JacobiRandom,
                         ::testing::Values(2, 3, 4, 6, 8, 12));

TEST(Jacobi, PositiveSemidefiniteCovarianceStaysNonNegative) {
  // Rank-1 covariance: one positive eigenvalue, rest ~0.
  Matrix a = sized(3, 3);
  const std::vector<double> v = {1.0, 2.0, 3.0};
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) a(i, j) = v[i] * v[j];
  }
  const auto e = eigen_of(a);
  EXPECT_NEAR(e.values[0], 14.0, 1e-10);
  EXPECT_NEAR(e.values[1], 0.0, 1e-10);
  EXPECT_NEAR(e.values[2], 0.0, 1e-10);
}

}  // namespace
}  // namespace amoeba::linalg
