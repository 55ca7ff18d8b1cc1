#include "sim/random.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "support/rng_draws.hpp"

namespace amoeba::sim {
namespace {

using sim::testing::normal;
using sim::testing::uniform_index;

TEST(Rng, DeterministicForFixedSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(9);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIndexInRange) {
  Rng rng(10);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 70000; ++i) {
    const auto k = uniform_index(rng, 7);
    ASSERT_LT(k, 7u);
    counts[static_cast<std::size_t>(k)]++;
  }
  for (int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(11);
  const double lambda = 4.0;
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(lambda);
  EXPECT_NEAR(sum / n, 1.0 / lambda, 0.01);
}

TEST(Rng, ExponentialIsPositive) {
  Rng rng(12);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(rng.exponential(2.0), 0.0);
}

TEST(Rng, ExponentialRequiresPositiveRate) {
  Rng rng(13);
  EXPECT_THROW((void)rng.exponential(0.0), ContractError);
  EXPECT_THROW((void)rng.exponential(-1.0), ContractError);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(14);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, NormalWithParamsScales) {
  Rng rng(15);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += normal(rng, 10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, LognormalMeanCvHitsTargetMoments) {
  Rng rng(16);
  const double mean = 0.25, cv = 0.4;
  const int n = 300000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.lognormal_mean_cv(mean, cv);
    EXPECT_GT(x, 0.0);
    sum += x;
    sum2 += x * x;
  }
  const double m = sum / n;
  const double var = sum2 / n - m * m;
  EXPECT_NEAR(m, mean, 0.01 * mean * 5);
  EXPECT_NEAR(std::sqrt(var) / m, cv, 0.03);
}

TEST(Rng, LognormalZeroCvIsDegenerate) {
  Rng rng(17);
  EXPECT_DOUBLE_EQ(rng.lognormal_mean_cv(0.5, 0.0), 0.5);
}

TEST(Rng, ForkStreamsAreIndependentAndDeterministic) {
  Rng base(99);
  Rng f1 = base.fork(1);
  Rng f2 = base.fork(2);
  Rng f1_again = base.fork(1);
  EXPECT_EQ(f1(), f1_again());
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (f1() == f2()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(SplitMix, KnownSequenceAdvances) {
  std::uint64_t s = 0;
  const std::uint64_t a = splitmix64(s);
  const std::uint64_t b = splitmix64(s);
  EXPECT_NE(a, b);
  std::uint64_t s2 = 0;
  EXPECT_EQ(splitmix64(s2), a);
}

}  // namespace
}  // namespace amoeba::sim
