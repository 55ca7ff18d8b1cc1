#include "stats/percentile.hpp"

#include <gtest/gtest.h>

#include "sim/random.hpp"
#include "stats/reference_percentile.hpp"

namespace amoeba::stats {
namespace {

using testing::percentile;

TEST(Percentile, MedianOfOddCount) {
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 2.0}, 0.5), 2.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  // R-7 on {1,2,3,4}: q=0.5 -> 2.5.
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0}, 0.5), 2.5);
}

TEST(Percentile, ExtremesAreMinMax) {
  std::vector<double> v = {5.0, -2.0, 9.0, 1.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), -2.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 9.0);
}

TEST(Percentile, SingleElement) {
  EXPECT_DOUBLE_EQ(percentile({42.0}, 0.95), 42.0);
}

TEST(Percentile, RejectsEmptyAndBadQ) {
  EXPECT_THROW((void)percentile({}, 0.5), ContractError);
  EXPECT_THROW((void)percentile({1.0}, -0.1), ContractError);
  EXPECT_THROW((void)percentile({1.0}, 1.1), ContractError);
}

TEST(SampleSet, BasicStatistics) {
  SampleSet s;
  for (double x : {4.0, 1.0, 3.0, 2.0}) s.add(x);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 2.5);
}

TEST(SampleSet, QuantileMatchesFreeFunction) {
  sim::Rng rng(5);
  SampleSet s;
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform();
    s.add(x);
    v.push_back(x);
  }
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(s.quantile(q), percentile(v, q)) << "q=" << q;
  }
}

TEST(SampleSet, CdfAtCountsInclusive) {
  SampleSet s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.cdf_at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.cdf_at(2.0), 0.5);
  EXPECT_DOUBLE_EQ(s.cdf_at(10.0), 1.0);
}

TEST(SampleSet, FractionAboveThreshold) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_NEAR(s.fraction_above(95.0), 0.05, 1e-12);
  EXPECT_DOUBLE_EQ(s.fraction_above(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.fraction_above(100.0), 0.0);
}

TEST(SampleSet, CdfCurveIsMonotone) {
  // The empirical CDF sampled at 20 equally spaced quantiles: values and
  // cumulative probabilities both rise, from the minimum to probability 1.
  sim::Rng rng(6);
  SampleSet s;
  for (int i = 0; i < 500; ++i) s.add(rng.exponential(1.0));
  double prev_x = s.quantile(0.0);
  double prev_p = s.cdf_at(prev_x);
  EXPECT_DOUBLE_EQ(prev_p, 1.0 / 500.0);
  for (int i = 1; i < 20; ++i) {
    const double x = s.quantile(static_cast<double>(i) / 19.0);
    const double p = s.cdf_at(x);
    EXPECT_GE(x, prev_x);
    EXPECT_GE(p, prev_p);
    prev_x = x;
    prev_p = p;
  }
  EXPECT_DOUBLE_EQ(prev_p, 1.0);
}

TEST(SampleSet, AddAfterQueryInvalidatesCache) {
  SampleSet s;
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 1.0);
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 5.0);
}

TEST(SampleSet, ClearResets) {
  SampleSet s;
  s.add(1.0);
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.fraction_above(0.0), 0.0);
}

}  // namespace
}  // namespace amoeba::stats
