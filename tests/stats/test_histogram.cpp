#include "stats/histogram.hpp"

#include <gtest/gtest.h>

#include "sim/random.hpp"

namespace amoeba::stats {
namespace {

TEST(LogHistogram, SpansDecades) {
  LogHistogram h(1e-3, 1e3, 10);
  h.add(0.01);
  h.add(1.0);
  h.add(100.0);
  EXPECT_EQ(h.total(), 3u);
}

TEST(LogHistogram, QuantileApproximatesLognormal) {
  LogHistogram h(1e-4, 1e2, 50);
  sim::Rng rng(13);
  std::vector<double> all;
  for (int i = 0; i < 50000; ++i) {
    const double x = rng.lognormal_mean_cv(0.1, 0.8);
    h.add(x);
    all.push_back(x);
  }
  std::sort(all.begin(), all.end());
  const double exact95 =
      all[static_cast<std::size_t>(0.95 * static_cast<double>(all.size()))];
  EXPECT_NEAR(h.quantile(0.95) / exact95, 1.0, 0.1);
}

TEST(LogHistogram, NonPositiveValuesUnderflow) {
  LogHistogram h(1e-3, 1e3, 10);
  h.add(0.0);
  h.add(-5.0);
  EXPECT_EQ(h.total(), 2u);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), -5.0);  // min seen
}

TEST(LogHistogram, InvalidConstruction) {
  EXPECT_THROW(LogHistogram(0.0, 1.0, 10), ContractError);
  EXPECT_THROW(LogHistogram(1.0, 0.5, 10), ContractError);
}

}  // namespace
}  // namespace amoeba::stats
