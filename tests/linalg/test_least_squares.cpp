#include "linalg/least_squares.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "reference_linalg.hpp"
#include "sim/random.hpp"
#include "support/rng_draws.hpp"

namespace amoeba::linalg {
namespace {

using sim::testing::normal;
using testing::from_rows;
using testing::sized;
using testing::solve_least_squares;

TEST(SolveSpd, Known2x2) {
  Matrix m = from_rows({{4.0, 1.0}, {1.0, 3.0}});
  std::vector<double> x = {1.0, 2.0};
  solve_spd(m, x);
  // Verify m x = rhs.
  EXPECT_NEAR(4.0 * x[0] + 1.0 * x[1], 1.0, 1e-12);
  EXPECT_NEAR(1.0 * x[0] + 3.0 * x[1], 2.0, 1e-12);
  // m's lower triangle now holds the Cholesky factor.
  EXPECT_DOUBLE_EQ(m(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 0.5);
  EXPECT_DOUBLE_EQ(m(1, 1), std::sqrt(2.75));
}

TEST(SolveSpd, RejectsIndefinite) {
  Matrix m = from_rows({{0.0, 1.0}, {1.0, 0.0}});
  std::vector<double> b = {1.0, 1.0};
  EXPECT_THROW(solve_spd(m, b), ContractError);
}

TEST(SolveSpd, RejectsBadDimensions) {
  Matrix m = sized(2, 3);
  std::vector<double> b2 = {1.0, 2.0};
  EXPECT_THROW(solve_spd(m, b2), ContractError);
  Matrix sq = sized(2, 2);
  std::vector<double> b1 = {1.0};
  EXPECT_THROW(solve_spd(sq, b1), ContractError);
}

TEST(LeastSquares, ExactSystemRecovered) {
  // y = 2 x1 - 3 x2, no noise, square system.
  Matrix a = from_rows({{1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}});
  const auto beta = solve_least_squares(a, {2.0, -3.0, -1.0});
  EXPECT_NEAR(beta[0], 2.0, 1e-10);
  EXPECT_NEAR(beta[1], -3.0, 1e-10);
}

TEST(LeastSquares, OverdeterminedNoisyRecovery) {
  sim::Rng rng(17);
  const std::size_t n = 500;
  Matrix a = sized(n, 3);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform(-1.0, 1.0);
    const double x1 = rng.uniform(-1.0, 1.0);
    const double x2 = rng.uniform(-1.0, 1.0);
    a(i, 0) = x0;
    a(i, 1) = x1;
    a(i, 2) = x2;
    y[i] = 1.5 * x0 - 0.5 * x1 + 2.0 * x2 + normal(rng, 0.0, 0.01);
  }
  const auto beta = solve_least_squares(a, y);
  EXPECT_NEAR(beta[0], 1.5, 0.01);
  EXPECT_NEAR(beta[1], -0.5, 0.01);
  EXPECT_NEAR(beta[2], 2.0, 0.01);
}

TEST(LeastSquares, RidgeShrinksCoefficients) {
  Matrix a = from_rows({{1.0}, {1.0}, {1.0}});
  const auto free = solve_least_squares(a, {2.0, 2.0, 2.0}, 0.0);
  const auto ridged = solve_least_squares(a, {2.0, 2.0, 2.0}, 10.0);
  EXPECT_NEAR(free[0], 2.0, 1e-12);
  EXPECT_LT(ridged[0], free[0]);
  EXPECT_GT(ridged[0], 0.0);
}

TEST(LeastSquares, RidgeRescuesRankDeficiency) {
  // Duplicate columns: AᵀA singular without damping.
  Matrix a = from_rows({{1.0, 1.0}, {2.0, 2.0}, {3.0, 3.0}});
  EXPECT_THROW((void)solve_least_squares(a, {1.0, 2.0, 3.0}, 0.0),
               ContractError);
  const auto beta = solve_least_squares(a, {1.0, 2.0, 3.0}, 1e-6);
  // Symmetric solution: both coefficients near 0.5.
  EXPECT_NEAR(beta[0], 0.5, 1e-3);
  EXPECT_NEAR(beta[1], 0.5, 1e-3);
}

TEST(LeastSquares, DimensionMismatchThrows) {
  Matrix a = sized(3, 2);
  EXPECT_THROW((void)solve_least_squares(a, {1.0, 2.0}), ContractError);
}

}  // namespace
}  // namespace amoeba::linalg
