#include "sim/counting_resource.hpp"

#include <gtest/gtest.h>

namespace amoeba::sim {
namespace {

TEST(CountingResource, AcquireAndRelease) {
  Engine e;
  CountingResource mem(e, 1024.0);
  EXPECT_TRUE(mem.try_acquire(256.0));
  EXPECT_DOUBLE_EQ(mem.in_use(), 256.0);
  EXPECT_DOUBLE_EQ(mem.available(), 768.0);
  mem.release(256.0);
  EXPECT_DOUBLE_EQ(mem.in_use(), 0.0);
}

TEST(CountingResource, RejectsOverAcquire) {
  Engine e;
  CountingResource mem(e, 512.0);
  EXPECT_TRUE(mem.try_acquire(512.0));
  EXPECT_FALSE(mem.try_acquire(1.0));
  EXPECT_DOUBLE_EQ(mem.in_use(), 512.0);  // failed acquire has no effect
}

TEST(CountingResource, ExactFitSucceeds) {
  Engine e;
  CountingResource mem(e, 512.0);
  EXPECT_TRUE(mem.try_acquire(256.0));
  EXPECT_TRUE(mem.try_acquire(256.0));
  EXPECT_FALSE(mem.try_acquire(0.001));
}

TEST(CountingResource, OverReleaseThrows) {
  Engine e;
  CountingResource mem(e, 512.0);
  EXPECT_TRUE(mem.try_acquire(100.0));
  EXPECT_THROW(mem.release(200.0), ContractError);
}

TEST(CountingResource, UtilizationFraction) {
  Engine e;
  CountingResource mem(e, 1000.0);
  EXPECT_TRUE(mem.try_acquire(250.0));
  EXPECT_DOUBLE_EQ(mem.utilization(), 0.25);
}

TEST(CountingResource, HeldIntegralTracksTime) {
  Engine e;
  CountingResource mem(e, 1000.0);
  EXPECT_TRUE(mem.try_acquire(100.0));
  e.schedule(5.0, [&] { mem.release(100.0); });
  e.schedule(10.0, [] {});
  e.run();
  EXPECT_NEAR(mem.held_unit_seconds(e.now()), 500.0, 1e-9);
}

TEST(CountingResource, IntegralWithMultipleSteps) {
  Engine e;
  CountingResource mem(e, 1000.0);
  EXPECT_TRUE(mem.try_acquire(100.0));
  e.schedule(2.0, [&] { EXPECT_TRUE(mem.try_acquire(300.0)); });
  e.schedule(4.0, [&] { mem.release(400.0); });
  e.run();
  // 100*2 + 400*2 = 1000.
  EXPECT_NEAR(mem.held_unit_seconds(4.0), 1000.0, 1e-9);
}

}  // namespace
}  // namespace amoeba::sim
