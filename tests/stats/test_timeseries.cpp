#include "stats/timeseries.hpp"

#include <gtest/gtest.h>

namespace amoeba::stats {
namespace {

TEST(TimeSeries, RejectsDecreasingTimestamps) {
  TimeSeries ts;
  ts.add(1.0, 10.0);
  EXPECT_THROW(ts.add(0.5, 20.0), ContractError);
}

TEST(TimeSeries, ValueAtStepFunction) {
  TimeSeries ts;
  ts.add(0.0, 1.0);
  ts.add(10.0, 2.0);
  EXPECT_DOUBLE_EQ(ts.value_at(0.0), 1.0);
  EXPECT_DOUBLE_EQ(ts.value_at(9.99), 1.0);
  EXPECT_DOUBLE_EQ(ts.value_at(10.0), 2.0);
  EXPECT_DOUBLE_EQ(ts.value_at(100.0), 2.0);
}

TEST(TimeSeries, ValueBeforeFirstThrows) {
  TimeSeries ts;
  ts.add(5.0, 1.0);
  EXPECT_THROW((void)ts.value_at(4.0), ContractError);
}

TEST(TimeSeries, ResampleAveragesBuckets) {
  TimeSeries ts;
  ts.add(0.0, 0.0);
  ts.add(1.0, 2.0);
  ts.add(2.0, 4.0);
  ts.add(3.0, 6.0);
  const auto r = ts.resample(0.0, 4.0, 2);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_DOUBLE_EQ(r[0].value, 1.0);  // avg of {0, 2}
  EXPECT_DOUBLE_EQ(r[1].value, 5.0);  // avg of {4, 6}
}

TEST(TimeSeries, ResampleEmptyBucketCarriesStepValue) {
  TimeSeries ts;
  ts.add(0.0, 7.0);
  const auto r = ts.resample(0.0, 10.0, 5);
  ASSERT_EQ(r.size(), 5u);
  for (const auto& p : r) EXPECT_DOUBLE_EQ(p.value, 7.0);
}

TEST(TimeSeries, EqualTimestampsAllowed) {
  TimeSeries ts;
  ts.add(1.0, 1.0);
  ts.add(1.0, 2.0);
  EXPECT_DOUBLE_EQ(ts.value_at(1.0), 2.0);  // latest wins
}

}  // namespace
}  // namespace amoeba::stats
