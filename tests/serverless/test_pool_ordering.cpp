// Every aggregate the pool reports (cluster summaries, admission headroom,
// accounting integrals) must be invariant under the order functions start
// containers. The per-function tables are a vector indexed by registration
// id; an order-dependent fold over them would leak the start order into
// float sums and, through their non-associativity, into trace hashes.
#include "serverless/container_pool.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace amoeba::serverless {
namespace {

constexpr double kMem = 2048.0;
constexpr double kContainer = 128.0;

// Functions are registered in this order in every run, so their ids match
// across runs; readout follows it, independent of start order.
const std::vector<const char*> kFunctions = {"alpha", "beta", "gamma"};
constexpr FunctionId kAlpha{0};
constexpr FunctionId kBeta{1};
constexpr FunctionId kGamma{2};

struct PoolReadout {
  PoolCounts totals;
  double mem_in_use = 0.0;
  int headroom = 0;
  std::vector<PoolCounts> per_fn_counts;
  std::vector<double> per_fn_mem;
  std::vector<double> per_fn_integral;
  std::uint64_t evictions = 0;
};

PoolReadout run_schedule(const std::vector<FunctionId>& start_order) {
  sim::Engine e;
  ContainerPool pool(e, kMem, 60.0);
  std::vector<FunctionId> ids;
  for (std::size_t i = 0; i < kFunctions.size(); ++i) {
    ids.push_back(pool.add_function());
  }
  // Two containers per function, staggered boots; start order varies.
  for (const FunctionId fn : start_order) {
    (void)pool.start(fn, kContainer, 1.0, [](ContainerId) {});
    (void)pool.start(fn, kContainer, 2.0, [](ContainerId) {});
  }
  e.run_until(3.0);
  for (const FunctionId fn : start_order) {
    (void)pool.acquire_idle(fn);  // one busy per function
  }
  // (No eviction here: evict_lru_idle breaks idle-time ties by container
  // id, and ids follow start order — a legitimate schedule difference,
  // not an iteration-order leak.)
  e.run_until(10.0);

  PoolReadout out;
  out.totals = pool.total_counts();
  out.mem_in_use = pool.memory_in_use_mb();
  out.headroom = pool.headroom(kContainer);
  out.evictions = pool.evictions();
  for (const FunctionId fn : ids) {
    out.per_fn_counts.push_back(pool.counts(fn));
    out.per_fn_mem.push_back(pool.memory_in_use_mb(fn));
    out.per_fn_integral.push_back(pool.memory_mb_seconds(fn, e.now()));
  }
  return out;
}

void expect_same(const PoolReadout& a, const PoolReadout& b) {
  EXPECT_EQ(a.totals.starting, b.totals.starting);
  EXPECT_EQ(a.totals.idle, b.totals.idle);
  EXPECT_EQ(a.totals.busy, b.totals.busy);
  EXPECT_DOUBLE_EQ(a.mem_in_use, b.mem_in_use);
  EXPECT_EQ(a.headroom, b.headroom);
  EXPECT_EQ(a.evictions, b.evictions);
  ASSERT_EQ(a.per_fn_counts.size(), b.per_fn_counts.size());
  for (std::size_t i = 0; i < a.per_fn_counts.size(); ++i) {
    EXPECT_EQ(a.per_fn_counts[i].idle, b.per_fn_counts[i].idle)
        << kFunctions[i];
    EXPECT_EQ(a.per_fn_counts[i].busy, b.per_fn_counts[i].busy)
        << kFunctions[i];
    // Bit-identical, not approximately equal: these integrals feed the
    // cluster summaries that the same-seed determinism suite hashes.
    EXPECT_DOUBLE_EQ(a.per_fn_mem[i], b.per_fn_mem[i]) << kFunctions[i];
    EXPECT_DOUBLE_EQ(a.per_fn_integral[i], b.per_fn_integral[i])
        << kFunctions[i];
  }
}

TEST(PoolOrdering, AggregatesInvariantUnderFunctionStartOrder) {
  const auto base = run_schedule({kAlpha, kBeta, kGamma});
  expect_same(base, run_schedule({kGamma, kBeta, kAlpha}));
  expect_same(base, run_schedule({kBeta, kGamma, kAlpha}));
}

TEST(PoolOrdering, RepeatedRunsAreBitIdentical) {
  // Same schedule twice in one process: any hidden dependence on hash
  // seeds or allocation addresses would show up here.
  const auto first = run_schedule({kAlpha, kBeta, kGamma});
  const auto second = run_schedule({kAlpha, kBeta, kGamma});
  expect_same(first, second);
}

}  // namespace
}  // namespace amoeba::serverless
