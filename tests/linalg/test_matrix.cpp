#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "reference_linalg.hpp"

namespace amoeba::linalg {
namespace {

using namespace testing;

TEST(Matrix, ConstructionAndAccess) {
  Matrix m;
  m.assign(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(1, 2) = -2.0;
  EXPECT_DOUBLE_EQ(m(1, 2), -2.0);
}

TEST(Matrix, InitializerList) {
  Matrix m = from_rows({{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((from_rows({{1.0, 2.0}, {3.0}})), ContractError);
}

TEST(Matrix, OutOfRangeAccessThrows) {
  Matrix m = sized(2, 2);
  EXPECT_THROW((void)m(2, 0), ContractError);
  EXPECT_THROW((void)m(0, 2), ContractError);
}

TEST(Matrix, IdentityMultiplication) {
  Matrix a = from_rows({{1.0, 2.0}, {3.0, 4.0}});
  Matrix i = identity(2);
  EXPECT_DOUBLE_EQ(max_abs_diff(a * i, a), 0.0);
  EXPECT_DOUBLE_EQ(max_abs_diff(i * a, a), 0.0);
}

TEST(Matrix, ProductKnownValues) {
  Matrix a = from_rows({{1.0, 2.0}, {3.0, 4.0}});
  Matrix b = from_rows({{5.0, 6.0}, {7.0, 8.0}});
  Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, ProductDimensionMismatchThrows) {
  Matrix a = sized(2, 3);
  Matrix b = sized(2, 3);
  EXPECT_THROW((void)(a * b), ContractError);
}

TEST(Matrix, TransposeRoundTrip) {
  Matrix a = from_rows({{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}});
  Matrix t = transposed(a);
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  EXPECT_DOUBLE_EQ(max_abs_diff(transposed(t), a), 0.0);
}

TEST(Matrix, AddSubtractScale) {
  Matrix a = from_rows({{1.0, 2.0}});
  Matrix b = from_rows({{3.0, 5.0}});
  EXPECT_DOUBLE_EQ((a + b)(0, 1), 7.0);
  EXPECT_DOUBLE_EQ((b - a)(0, 0), 2.0);
  EXPECT_DOUBLE_EQ((a * 3.0)(0, 1), 6.0);
}

TEST(Matrix, ApplyVector) {
  Matrix a = from_rows({{1.0, 2.0}, {3.0, 4.0}});
  const auto y = apply(a, {1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(Matrix, RowAndColVectors) {
  Matrix a = from_rows({{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_EQ(row_vector(a, 1), (std::vector<double>{3.0, 4.0}));
  EXPECT_EQ(row_vector(transposed(a), 0), (std::vector<double>{1.0, 3.0}));
}

TEST(Matrix, AssignReshapesAndFills) {
  Matrix m = sized(3, 3, 1.0);
  m.assign(2, 4, -0.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 4u);
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 4; ++c) EXPECT_EQ(m(r, c), -0.5);
  EXPECT_THROW((void)m(2, 0), ContractError);
  EXPECT_THROW(m.assign(0, 2), ContractError);
}

TEST(Matrix, SymmetryCheck) {
  Matrix s = from_rows({{1.0, 2.0}, {2.0, 5.0}});
  EXPECT_TRUE(s.is_symmetric());
  Matrix ns = from_rows({{1.0, 2.0}, {2.1, 5.0}});
  EXPECT_FALSE(ns.is_symmetric());
  EXPECT_TRUE(ns.is_symmetric(0.2));
  EXPECT_FALSE(sized(2, 3).is_symmetric());
}

TEST(Matrix, FrobeniusNorm) {
  Matrix a = from_rows({{3.0, 4.0}});
  EXPECT_DOUBLE_EQ(a.frobenius_norm(), 5.0);
}

TEST(VectorOps, DotAndNorm) {
  EXPECT_DOUBLE_EQ(dot({1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}), 32.0);
  EXPECT_DOUBLE_EQ(norm2({3.0, 4.0}), 5.0);
  EXPECT_THROW((void)dot({1.0}, {1.0, 2.0}), ContractError);
}

}  // namespace
}  // namespace amoeba::linalg
