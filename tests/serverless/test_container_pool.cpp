#include "serverless/container_pool.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "sim/fault_injector.hpp"

namespace amoeba::serverless {
namespace {

constexpr double kMem = 1024.0;      // pool: 4 containers at 256 MB
constexpr double kContainer = 256.0;

TEST(ContainerPool, StartReservesMemoryImmediately) {
  sim::Engine e;
  ContainerPool pool(e, kMem, 60.0);
  const FunctionId fn_f = pool.add_function();
  const auto id = pool.start(fn_f, kContainer, 1.0, [](ContainerId) {});
  ASSERT_TRUE(id.has_value());
  EXPECT_DOUBLE_EQ(pool.memory_in_use_mb(), kContainer);
  EXPECT_EQ(pool.counts(fn_f).starting, 1);
  EXPECT_EQ(pool.counts(fn_f).idle, 0);
}

TEST(ContainerPool, BootCompletesToIdleAfterDelay) {
  sim::Engine e;
  ContainerPool pool(e, kMem, 60.0);
  const FunctionId fn_f = pool.add_function();
  double ready_at = -1.0;
  (void)pool.start(fn_f, kContainer, 1.5,
                   [&](ContainerId) { ready_at = e.now(); });
  e.run_until(2.0);
  EXPECT_DOUBLE_EQ(ready_at, 1.5);
  EXPECT_EQ(pool.counts(fn_f).idle, 1);
  EXPECT_EQ(pool.counts(fn_f).starting, 0);
}

TEST(ContainerPool, StartFailsWhenMemoryExhausted) {
  sim::Engine e;
  ContainerPool pool(e, kMem, 60.0);
  const FunctionId fn_f = pool.add_function();
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(pool.start(fn_f, kContainer, 0.1, [](ContainerId) {})
                    .has_value());
  }
  EXPECT_FALSE(pool.start(fn_f, kContainer, 0.1, [](ContainerId) {})
                   .has_value());
  EXPECT_EQ(pool.cold_starts(), 4u);
}

TEST(ContainerPool, KeepAliveExpiryReleasesMemory) {
  sim::Engine e;
  ContainerPool pool(e, kMem, 10.0);
  const FunctionId fn_f = pool.add_function();
  (void)pool.start(fn_f, kContainer, 1.0, [](ContainerId) {});
  e.run_until(5.0);
  EXPECT_EQ(pool.counts(fn_f).idle, 1);
  e.run_until(12.0);  // idle since t=1, TTL 10 -> expires at t=11
  EXPECT_EQ(pool.counts(fn_f).idle, 0);
  EXPECT_DOUBLE_EQ(pool.memory_in_use_mb(), 0.0);
}

TEST(ContainerPool, AcquireIdleCancelsExpiry) {
  sim::Engine e;
  ContainerPool pool(e, kMem, 10.0);
  const FunctionId fn_f = pool.add_function();
  (void)pool.start(fn_f, kContainer, 1.0, [](ContainerId) {});
  e.run_until(2.0);
  const auto id = pool.acquire_idle(fn_f);
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(pool.counts(fn_f).busy, 1);
  e.run_until(60.0);  // busy container never expires
  EXPECT_EQ(pool.counts(fn_f).busy, 1);
}

TEST(ContainerPool, AcquireIdleIsLifo) {
  sim::Engine e;
  ContainerPool pool(e, kMem, 60.0);
  const FunctionId fn_f = pool.add_function();
  (void)pool.start(fn_f, kContainer, 1.0, [](ContainerId) {});
  (void)pool.start(fn_f, kContainer, 2.0, [](ContainerId) {});
  e.run_until(3.0);
  const auto id = pool.acquire_idle(fn_f);
  ASSERT_TRUE(id.has_value());
  // The most recently idled container (the one that booted at t=2) is
  // reused first.
  EXPECT_DOUBLE_EQ(pool.get(*id).ready_at, 2.0);
}

TEST(ContainerPool, ReleaseToIdleRearmsExpiry) {
  sim::Engine e;
  ContainerPool pool(e, kMem, 10.0);
  const FunctionId fn_f = pool.add_function();
  (void)pool.start(fn_f, kContainer, 1.0, [](ContainerId) {});
  e.run_until(2.0);
  const auto id = pool.acquire_idle(fn_f);
  ASSERT_TRUE(id.has_value());
  e.run_until(8.0);
  pool.release_to_idle(*id);
  e.run_until(17.0);  // would have expired at 11 from original timer
  EXPECT_EQ(pool.counts(fn_f).idle, 1);
  e.run_until(18.5);  // new TTL: idle at 8 + 10 = 18
  EXPECT_EQ(pool.counts(fn_f).idle, 0);
}

TEST(ContainerPool, EvictLruIdlePicksOldest) {
  sim::Engine e;
  ContainerPool pool(e, kMem, 60.0);
  const FunctionId fn_a = pool.add_function();
  const FunctionId fn_b = pool.add_function();
  (void)pool.start(fn_a, kContainer, 1.0, [](ContainerId) {});
  (void)pool.start(fn_b, kContainer, 2.0, [](ContainerId) {});
  e.run_until(3.0);
  EXPECT_TRUE(pool.evict_lru_idle());
  EXPECT_EQ(pool.counts(fn_a).idle, 0);  // idle since 1.0: evicted
  EXPECT_EQ(pool.counts(fn_b).idle, 1);
  EXPECT_EQ(pool.evictions(), 1u);
}

TEST(ContainerPool, EvictRespectsExclusion) {
  sim::Engine e;
  ContainerPool pool(e, kMem, 60.0);
  const FunctionId fn_a = pool.add_function();
  const FunctionId fn_other = pool.add_function();
  (void)pool.start(fn_a, kContainer, 1.0, [](ContainerId) {});
  e.run_until(2.0);
  EXPECT_FALSE(pool.evict_lru_idle(fn_a));
  EXPECT_TRUE(pool.evict_lru_idle(fn_other));
}

TEST(ContainerPool, EvictRejectsAnUnknownExclusion) {
  sim::Engine e;
  ContainerPool pool(e, kMem, 60.0);
  const FunctionId fn_f = pool.add_function();
  (void)pool.start(fn_f, kContainer, 1.0, [](ContainerId) {});
  e.run_until(2.0);
  EXPECT_THROW((void)pool.evict_lru_idle(FunctionId{7}), ContractError);
  EXPECT_EQ(pool.counts(fn_f).idle, 1);  // the rejected call evicted nothing
}

TEST(ContainerPool, EvictIgnoresBusyContainers) {
  sim::Engine e;
  ContainerPool pool(e, kMem, 60.0);
  const FunctionId fn_a = pool.add_function();
  (void)pool.start(fn_a, kContainer, 1.0, [](ContainerId) {});
  e.run_until(2.0);
  (void)pool.acquire_idle(fn_a);
  EXPECT_FALSE(pool.evict_lru_idle());
}

TEST(ContainerPool, EvictMissesWhenOtherFunctionsAreOnlyStartingOrBusy) {
  // The only idle container belongs to the excluded function; the others
  // are booting or busy. Eviction must miss and leave the pool untouched.
  sim::Engine e;
  ContainerPool pool(e, kMem, 60.0);
  const FunctionId fn_a = pool.add_function();
  const FunctionId fn_b = pool.add_function();
  const FunctionId fn_c = pool.add_function();
  (void)pool.start(fn_a, kContainer, 1.0, [](ContainerId) {});
  (void)pool.start(fn_b, kContainer, 1.0, [](ContainerId) {});
  (void)pool.start(fn_c, kContainer, 50.0, [](ContainerId) {});
  e.run_until(2.0);
  ASSERT_TRUE(pool.acquire_idle(fn_b).has_value());
  EXPECT_FALSE(pool.evict_lru_idle(fn_a));
  EXPECT_EQ(pool.evictions(), 0u);
  EXPECT_EQ(pool.counts(fn_a).idle, 1);
  EXPECT_EQ(pool.counts(fn_b).busy, 1);
  EXPECT_EQ(pool.counts(fn_c).starting, 1);
  EXPECT_EQ(pool.total_counts().total(), 3);
}

TEST(ContainerPool, DestroyIdleRemovesAllIdleOfFunction) {
  sim::Engine e;
  ContainerPool pool(e, kMem, 60.0);
  const FunctionId fn_a = pool.add_function();
  const FunctionId fn_b = pool.add_function();
  (void)pool.start(fn_a, kContainer, 1.0, [](ContainerId) {});
  (void)pool.start(fn_a, kContainer, 1.0, [](ContainerId) {});
  (void)pool.start(fn_b, kContainer, 1.0, [](ContainerId) {});
  e.run_until(2.0);
  EXPECT_EQ(pool.destroy_idle(fn_a), 2);
  EXPECT_EQ(pool.counts(fn_a).idle, 0);
  EXPECT_EQ(pool.counts(fn_b).idle, 1);
}

TEST(ContainerPool, DestroyWhileStartingDropsReadyCallback) {
  sim::Engine e;
  ContainerPool pool(e, kMem, 60.0);
  const FunctionId fn_f = pool.add_function();
  bool ready = false;
  const auto id = pool.start(fn_f, kContainer, 5.0,
                             [&](ContainerId) { ready = true; });
  ASSERT_TRUE(id.has_value());
  e.run_until(1.0);
  pool.destroy(*id);
  e.run_until(10.0);
  EXPECT_FALSE(ready);
  EXPECT_DOUBLE_EQ(pool.memory_in_use_mb(), 0.0);
}

TEST(ContainerPool, HeadroomCountsWholeContainers) {
  sim::Engine e;
  ContainerPool pool(e, kMem, 60.0);
  const FunctionId fn_f = pool.add_function();
  EXPECT_EQ(pool.headroom(kContainer), 4);
  (void)pool.start(fn_f, kContainer, 1.0, [](ContainerId) {});
  EXPECT_EQ(pool.headroom(kContainer), 3);
  EXPECT_EQ(pool.headroom(300.0), 2);
}

// Starts 4 x 256 MB containers, which fill the 1024 MB pool exactly.
std::vector<ContainerId> fill_pool(ContainerPool& pool, FunctionId fn) {
  std::vector<ContainerId> ids;
  for (int i = 0; i < 4; ++i) {
    const auto id = pool.start(fn, kContainer, 1.0, [](ContainerId) {});
    EXPECT_TRUE(id.has_value()) << "container " << i;
    if (id) ids.push_back(*id);
  }
  return ids;
}

TEST(ContainerPool, ExactMemoryFitSucceeds) {
  sim::Engine e;
  ContainerPool pool(e, kMem, 60.0);
  const FunctionId fn_f = pool.add_function();
  ASSERT_EQ(fill_pool(pool, fn_f).size(), 4u);
  EXPECT_EQ(pool.memory_in_use_mb(), kMem);
  EXPECT_EQ(pool.headroom(1.0), 0);
  EXPECT_FALSE(pool.memory_available(1.0));

  // 3 x 0.1 MB sums to a hair above 0.3 MB; the 1e-9 MB fit tolerance
  // still admits the third container.
  ContainerPool tenths(e, 0.3, 60.0);
  const FunctionId fn_t = tenths.add_function();
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(
        tenths.start(fn_t, 0.1, 1.0, [](ContainerId) {}).has_value());
  }
  EXPECT_GT(tenths.memory_in_use_mb(), 0.3);
}

TEST(ContainerPool, RefusesOneMbOverCapacity) {
  sim::Engine e;
  ContainerPool pool(e, kMem, 60.0);
  const FunctionId fn_f = pool.add_function();
  ASSERT_EQ(fill_pool(pool, fn_f).size(), 4u);
  EXPECT_FALSE(pool.start(fn_f, 1.0, 1.0, [](ContainerId) {}).has_value());
  EXPECT_EQ(pool.memory_in_use_mb(), kMem);  // a refused start holds nothing
  EXPECT_EQ(pool.cold_starts(), 4u);

  // The fit tolerance admits 3 x 0.1 MB into 0.3 MB, but not one MB more.
  ContainerPool tenths(e, 0.3, 60.0);
  const FunctionId fn_t = tenths.add_function();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        tenths.start(fn_t, 0.1, 1.0, [](ContainerId) {}).has_value());
  }
  EXPECT_FALSE(tenths.start(fn_t, 1.0, 1.0, [](ContainerId) {}).has_value());
}

TEST(ContainerPool, FillsMemoryExactlyAndReturnsToZero) {
  sim::Engine e;
  ContainerPool pool(e, kMem, 60.0);
  const FunctionId fn_f = pool.add_function();
  const std::vector<ContainerId> ids = fill_pool(pool, fn_f);
  ASSERT_EQ(ids.size(), 4u);
  EXPECT_EQ(pool.memory_in_use_mb(), kMem);
  for (const ContainerId id : ids) pool.destroy(id);
  EXPECT_EQ(pool.memory_in_use_mb(), 0.0);
  EXPECT_EQ(pool.headroom(kContainer), 4);
}

TEST(ContainerPool, MemoryIntegralPerFunction) {
  sim::Engine e;
  ContainerPool pool(e, kMem, 60.0);
  const FunctionId fn_f = pool.add_function();
  const FunctionId fn_unused = pool.add_function();
  const auto id = pool.start(fn_f, kContainer, 0.0, [](ContainerId) {});
  ASSERT_TRUE(id.has_value());
  e.run_until(10.0);
  pool.destroy(*id);
  e.run_until(20.0);
  EXPECT_NEAR(pool.memory_mb_seconds(fn_f, e.now()), kContainer * 10.0, 1e-6);
  // A registered function that never started a container holds nothing.
  EXPECT_DOUBLE_EQ(pool.memory_mb_seconds(fn_unused, e.now()), 0.0);
}

TEST(ContainerPool, LastContainerOutZeroesTheMemoryGauge) {
  // These sizes do not add exactly: (a + b) - a - b is -5.7e-14, which a
  // running sum would carry into the gauge and abort on (gauges are >= 0).
  constexpr double kA = 397.26105225516454;
  constexpr double kB = 369.69463887324287;
  sim::Engine e;
  ContainerPool pool(e, kMem, 60.0);
  const FunctionId fn = pool.add_function();
  const auto a = pool.start(fn, kA, 0.0, [](ContainerId) {});
  const auto b = pool.start(fn, kB, 0.0, [](ContainerId) {});
  ASSERT_TRUE(a.has_value() && b.has_value());
  e.run_until(10.0);
  pool.destroy(*a);
  EXPECT_GT(pool.memory_in_use_mb(fn), 0.0);
  pool.destroy(*b);
  EXPECT_EQ(pool.memory_in_use_mb(fn), 0.0);
  e.run_until(20.0);
  EXPECT_NEAR(pool.memory_mb_seconds(fn, e.now()), (kA + kB) * 10.0, 1e-9);
  // The same pair again, destroyed in the other order and by expiry.
  const auto c = pool.start(fn, kA, 0.0, [](ContainerId) {});
  const auto d = pool.start(fn, kB, 0.0, [](ContainerId) {});
  ASSERT_TRUE(c.has_value() && d.has_value());
  e.run_until(21.0);
  pool.destroy(*d);
  e.run();  // c expires from the keep-alive FIFO
  EXPECT_EQ(pool.memory_in_use_mb(fn), 0.0);
  EXPECT_EQ(pool.total_counts().total(), 0);
}

TEST(ContainerPool, TotalCountsAggregate) {
  sim::Engine e;
  ContainerPool pool(e, kMem, 60.0);
  const FunctionId fn_a = pool.add_function();
  const FunctionId fn_b = pool.add_function();
  (void)pool.start(fn_a, kContainer, 1.0, [](ContainerId) {});
  (void)pool.start(fn_b, kContainer, 5.0, [](ContainerId) {});
  e.run_until(2.0);
  const auto t = pool.total_counts();
  EXPECT_EQ(t.idle, 1);
  EXPECT_EQ(t.starting, 1);
  EXPECT_EQ(t.total(), 2);
}

TEST(ContainerPool, MarkBusyRequiresIdle) {
  sim::Engine e;
  ContainerPool pool(e, kMem, 60.0);
  const FunctionId fn_f = pool.add_function();
  const auto id = pool.start(fn_f, kContainer, 5.0, [](ContainerId) {});
  ASSERT_TRUE(id.has_value());
  EXPECT_THROW(pool.mark_busy(*id), ContractError);  // still starting
}

TEST(ContainerPool, InjectedBootFailureDestroysAndNotifies) {
  sim::Engine e;
  ContainerPool pool(e, kMem, 60.0);
  const FunctionId fn_f = pool.add_function();
  sim::FaultConfig fc;
  fc.container_boot_fail_first_n = 1;
  sim::FaultInjector faults(fc, sim::Rng(1));
  pool.set_fault_injector(&faults);

  bool ready = false;
  std::optional<ContainerId> failed_id;
  const auto id = pool.start(
      fn_f, kContainer, 1.0, [&](ContainerId) { ready = true; },
      [&](ContainerId cid) { failed_id = cid; });
  ASSERT_TRUE(id.has_value());
  // The doomed boot holds its memory reservation for the full boot window.
  EXPECT_DOUBLE_EQ(pool.memory_in_use_mb(), kContainer);
  e.run_until(2.0);
  EXPECT_FALSE(ready);
  ASSERT_TRUE(failed_id.has_value());
  EXPECT_EQ(*failed_id, *id);
  EXPECT_EQ(pool.counts(fn_f).total(), 0);
  EXPECT_DOUBLE_EQ(pool.memory_in_use_mb(), 0.0);  // fully released
  EXPECT_EQ(pool.boot_failures(), 1u);
}

TEST(ContainerPool, InjectedStragglerInflatesBootTime) {
  sim::Engine e;
  ContainerPool pool(e, kMem, 60.0);
  const FunctionId fn_f = pool.add_function();
  sim::FaultConfig fc;
  fc.container_straggler_p = 1.0;
  fc.container_straggler_factor = 4.0;
  sim::FaultInjector faults(fc, sim::Rng(2));
  pool.set_fault_injector(&faults);

  double ready_at = -1.0;
  (void)pool.start(fn_f, kContainer, 1.0,
                   [&](ContainerId) { ready_at = e.now(); });
  e.run_until(10.0);
  EXPECT_DOUBLE_EQ(ready_at, 4.0);  // 1 s boot stretched 4x
  EXPECT_EQ(pool.boot_failures(), 0u);
}

TEST(ContainerPool, StartingIdsListsBootingContainers) {
  sim::Engine e;
  ContainerPool pool(e, kMem, 60.0);
  const FunctionId fn_f = pool.add_function();
  const FunctionId fn_g = pool.add_function();
  const auto a = pool.start(fn_f, kContainer, 1.0, [](ContainerId) {});
  const auto b = pool.start(fn_f, kContainer, 2.0, [](ContainerId) {});
  (void)pool.start(fn_g, kContainer, 2.0, [](ContainerId) {});
  const auto ids = pool.starting_ids(fn_f);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], *a);  // ascending container ids
  EXPECT_EQ(ids[1], *b);
  e.run_until(1.5);  // a is now idle
  EXPECT_EQ(pool.starting_ids(fn_f).size(), 1u);
}

TEST(ContainerPool, DestroyedFifoHeadLeavesLaterExpiriesOnTime) {
  // The one keep-alive timer is armed at a's deadline (11); destroying a
  // unlinks it but leaves the timer armed early. The timer must still
  // expire b at exactly 12 and c at exactly 13.
  sim::Engine e;
  ContainerPool pool(e, kMem, 10.0);
  const FunctionId fn_f = pool.add_function();
  const auto a = pool.start(fn_f, kContainer, 1.0, [](ContainerId) {});
  const auto b = pool.start(fn_f, kContainer, 2.0, [](ContainerId) {});
  const auto c = pool.start(fn_f, kContainer, 3.0, [](ContainerId) {});
  ASSERT_TRUE(a && b && c);
  e.run_until(5.0);
  pool.destroy(*a);
  e.run_until(11.5);
  EXPECT_FALSE(pool.contains(*a));
  EXPECT_TRUE(pool.contains(*b));
  e.run_until(std::nextafter(12.0, 0.0));
  EXPECT_TRUE(pool.contains(*b));
  e.run_until(12.0);
  EXPECT_FALSE(pool.contains(*b));
  EXPECT_TRUE(pool.contains(*c));
  e.run_until(13.0);
  EXPECT_FALSE(pool.contains(*c));
  EXPECT_DOUBLE_EQ(pool.memory_in_use_mb(), 0.0);
  EXPECT_TRUE(e.empty());  // no timer left armed once the FIFO is drained
}

TEST(ContainerPool, ReusedFifoHeadLeavesLaterExpiriesOnTime) {
  // Reusing the container whose deadline armed the timer unlinks it from
  // the FIFO front; its next release appends it at the back.
  sim::Engine e;
  ContainerPool pool(e, kMem, 10.0);
  const FunctionId fn_f = pool.add_function();
  const FunctionId fn_g = pool.add_function();
  const auto a = pool.start(fn_f, kContainer, 1.0, [](ContainerId) {});
  const auto b = pool.start(fn_g, kContainer, 2.0, [](ContainerId) {});
  ASSERT_TRUE(a && b);
  e.run_until(4.0);
  ASSERT_EQ(pool.acquire_idle(fn_f), a);
  e.run_until(6.0);
  pool.release_to_idle(*a);  // deadline 16
  e.run_until(12.0);
  EXPECT_TRUE(pool.contains(*a));
  EXPECT_FALSE(pool.contains(*b));  // expired at 12
  e.run_until(std::nextafter(16.0, 0.0));
  EXPECT_TRUE(pool.contains(*a));
  e.run_until(16.0);
  EXPECT_FALSE(pool.contains(*a));
  EXPECT_TRUE(e.empty());
}

TEST(ContainerPool, EvictionBreaksIdleTimeTiesByLowestId) {
  // Among containers idle since the same instant the lowest id goes first,
  // whatever order they were released in and whichever function they
  // belong to.
  sim::Engine e;
  ContainerPool pool(e, kMem, 60.0);
  const FunctionId fn_a = pool.add_function();
  const FunctionId fn_b = pool.add_function();
  std::vector<ContainerId> ids;
  for (const FunctionId fn : {fn_a, fn_b, fn_a, fn_a}) {
    const auto id = pool.start(fn, kContainer, 1.0, [](ContainerId) {});
    ASSERT_TRUE(id.has_value());
    ids.push_back(*id);
  }
  e.run_until(2.0);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(pool.acquire_idle(fn_a));
  ASSERT_TRUE(pool.acquire_idle(fn_b));
  e.run_until(3.0);
  for (const std::size_t i : {3u, 0u, 2u, 1u}) pool.release_to_idle(ids[i]);
  for (const std::size_t i : {0u, 1u, 2u, 3u}) {
    ASSERT_TRUE(pool.evict_lru_idle());
    EXPECT_FALSE(pool.contains(ids[i])) << "eviction " << i;
  }
}

TEST(ContainerPool, MarkBusyTakesTheMostRecentlyIdled) {
  sim::Engine e;
  ContainerPool pool(e, kMem, 60.0);
  const FunctionId fn_f = pool.add_function();
  const auto a = pool.start(fn_f, kContainer, 1.0, [](ContainerId) {});
  const auto b = pool.start(fn_f, kContainer, 2.0, [](ContainerId) {});
  ASSERT_TRUE(a && b);
  e.run_until(3.0);
  EXPECT_THROW(pool.mark_busy(*a), ContractError);  // b idled later
  pool.mark_busy(*b);
  pool.mark_busy(*a);
  EXPECT_EQ(pool.counts(fn_f).busy, 2);
}

TEST(ContainerPool, RowsAreReusedAndIdsStaySequential) {
  sim::Engine e;
  ContainerPool pool(e, kMem, 60.0);
  const FunctionId fn_f = pool.add_function();
  const auto a = pool.start(fn_f, kContainer, 1.0, [](ContainerId) {});
  const auto b = pool.start(fn_f, kContainer, 1.0, [](ContainerId) {});
  ASSERT_TRUE(a && b);
  EXPECT_EQ(*a, 1u);
  EXPECT_EQ(*b, 2u);
  const std::size_t row_a = pool.row(*a);
  pool.destroy(*a);
  const auto c = pool.start(fn_f, kContainer, 1.0, [](ContainerId) {});
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(*c, 3u);
  EXPECT_EQ(pool.row(*c), row_a);  // the freed row, not a new one
  EXPECT_FALSE(pool.contains(*a));
  EXPECT_FALSE(pool.contains(0));
  EXPECT_FALSE(pool.contains(4));
  EXPECT_THROW((void)pool.get(*a), ContractError);
}

}  // namespace
}  // namespace amoeba::serverless
