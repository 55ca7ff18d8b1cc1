// ContainerPool against the one-event-per-container reference pool
// (reference_container_pool.hpp): a seeded random script of starts (with
// injected stragglers and boot failures), acquires, same-instant release
// batches, destroys in any state, LRU evictions and destroy_idle calls
// drives both pools, and every observable must match bit for bit.
//
// Containers that vanish are found by polling contains() after every engine
// event. Several expiries due at one instant are one event in the
// production pool and one event each in the reference, so the disappearance
// log is compared with each instant's ids sorted; the order within an
// instant shows in the memory gauges instead, whose floating-point sums
// depend on the order containers are destroyed in (the script's container
// sizes are not exactly representable).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "reference_container_pool.hpp"
#include "serverless/container_pool.hpp"
#include "sim/engine.hpp"
#include "sim/fault_injector.hpp"
#include "sim/random.hpp"
#include "support/rng_draws.hpp"

namespace amoeba::serverless {
namespace {

using sim::testing::uniform_index;

constexpr double kPoolMemory = 4096.0 + 3 * 256.0;
constexpr double kAnchorMemory = 256.0;
constexpr double kKeepAlive = 4.0;
constexpr int kFunctions = 3;

using Stamp = std::pair<double, ContainerId>;

struct Outcome {
  std::vector<Stamp> ready;
  std::vector<Stamp> failed;
  std::vector<Stamp> gone;  ///< sorted by id within each instant
  std::vector<Stamp> victims;
  std::vector<int> counts;  ///< per op: (starting, idle, busy) per function
  std::vector<ContainerId> starting;
  std::vector<double> memory;  ///< per-function gauges, totals and peaks
  std::uint64_t cold_starts = 0;
  std::uint64_t evictions = 0;
  std::uint64_t boot_failures = 0;
  int peak_containers = 0;
  std::size_t max_pending = 0;
};

sim::FaultConfig script_faults() {
  sim::FaultConfig fc;
  fc.container_boot_failure_p = 0.12;
  fc.container_straggler_p = 0.2;
  fc.container_straggler_factor = 3.0;
  return fc;
}

/// One pool driven by the script. Every draw is made in the same order for
/// both pool types as long as they behave the same.
template <typename Pool>
class ScriptDriver {
 public:
  explicit ScriptDriver(std::uint64_t seed)
      : pool_(engine_, kPoolMemory, kKeepAlive),
        faults_(script_faults(), sim::Rng(seed * 31 + 7)),
        rng_(seed) {
    // One busy anchor per function, never released or destroyed, keeps
    // every memory gauge well above zero: the script's sizes do not sum
    // exactly, and a gauge drained to zero could round below it.
    for (int f = 0; f < kFunctions; ++f) {
      fns_.push_back(pool_.add_function());
      (void)pool_.start(fns_.back(), kAnchorMemory, 0.0,
                        [this](ContainerId id) { pool_.mark_busy(id); });
    }
    pool_.set_fault_injector(&faults_);
  }

  Outcome run(double horizon) {
    horizon_ = horizon;
    schedule_op();
    while (engine_.step()) {
      poll();
      out_.max_pending = std::max(out_.max_pending, engine_.pending());
    }
    std::sort(out_.gone.begin(), out_.gone.end());
    for (const FunctionId fn : fns_) {
      out_.memory.push_back(pool_.memory_in_use_mb(fn));
      out_.memory.push_back(pool_.memory_mb_seconds(fn, engine_.now()));
    }
    out_.memory.push_back(pool_.memory_in_use_mb());
    out_.memory.push_back(pool_.peak_memory_in_use_mb());
    out_.cold_starts = pool_.cold_starts();
    out_.evictions = pool_.evictions();
    out_.boot_failures = pool_.boot_failures();
    out_.peak_containers = pool_.peak_total_containers();
    return out_;
  }

 private:
  void schedule_op() {
    const double gap = rng_.exponential(4.0);
    if (engine_.now() + gap > horizon_) return;
    engine_.schedule_in(gap, [this] {
      op();
      schedule_op();
    });
  }

  FunctionId any_function() { return fns_[uniform_index(rng_, kFunctions)]; }

  void op() {
    const std::uint64_t kind = uniform_index(rng_, 20);
    if (kind < 7) {
      start(any_function());
    } else if (kind < 11) {
      if (const auto id = pool_.acquire_idle(any_function())) {
        busy_.push_back(*id);
      }
    } else if (kind < 15) {
      // One to three releases at the same instant: equal deadlines, whose
      // expiry order is push order.
      const std::uint64_t k = 1 + uniform_index(rng_, 3);
      for (std::uint64_t i = 0; i < k && !busy_.empty(); ++i) {
        const std::size_t pick = uniform_index(rng_, busy_.size());
        pool_.release_to_idle(busy_[pick]);
        busy_.erase(busy_.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    } else if (kind < 17) {
      // Any state: starting (its boot event must find it gone), idle or
      // busy.
      if (!alive_.empty()) {
        pool_.destroy(alive_[uniform_index(rng_, alive_.size())]);
      }
    } else if (kind < 19) {
      std::optional<FunctionId> exclude;
      if (rng_.uniform() < 0.5) exclude = any_function();
      evict(exclude);
    } else {
      (void)pool_.destroy_idle(any_function());
    }
    for (const FunctionId fn : fns_) {
      const PoolCounts c = pool_.counts(fn);
      out_.counts.insert(out_.counts.end(), {c.starting, c.idle, c.busy});
    }
    const auto starting = pool_.starting_ids(any_function());
    out_.starting.insert(out_.starting.end(), starting.begin(),
                         starting.end());
  }

  void start(FunctionId fn) {
    const double memory_mb = rng_.uniform(100.0, 700.0);
    const double boot_s = rng_.uniform() < 0.1 ? 0.0 : rng_.uniform(0.2, 2.0);
    auto on_ready = [this](ContainerId id) {
      out_.ready.emplace_back(engine_.now(), id);
      // A bound query takes the container the moment it boots.
      if (rng_.uniform() < 0.3) {
        pool_.mark_busy(id);
        busy_.push_back(id);
      }
    };
    auto on_failed = [this](ContainerId id) {
      out_.failed.emplace_back(engine_.now(), id);
    };
    auto id = pool_.start(fn, memory_mb, boot_s, on_ready, on_failed);
    if (!id.has_value() && evict(fn)) {
      id = pool_.start(fn, memory_mb, boot_s, on_ready, on_failed);
    }
    if (id.has_value()) alive_.push_back(*id);
  }

  bool evict(std::optional<FunctionId> exclude) {
    if (!pool_.evict_lru_idle(exclude)) return false;
    for (const ContainerId id : alive_) {
      if (!pool_.contains(id)) out_.victims.emplace_back(engine_.now(), id);
    }
    return true;
  }

  /// Log and forget every container that vanished since the last poll.
  void poll() {
    std::erase_if(alive_, [this](ContainerId id) {
      if (pool_.contains(id)) return false;
      out_.gone.emplace_back(engine_.now(), id);
      std::erase(busy_, id);
      return true;
    });
  }

  sim::Engine engine_;
  Pool pool_;
  sim::FaultInjector faults_;
  sim::Rng rng_;
  std::vector<FunctionId> fns_;
  std::vector<ContainerId> alive_;  ///< started, not yet seen gone
  std::vector<ContainerId> busy_;   ///< held by the script
  double horizon_ = 0.0;
  Outcome out_;
};

TEST(ContainerPoolReference, RandomScriptsMatchOneEventPerContainer) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(seed);
    const Outcome ref =
        ScriptDriver<testing::ReferenceContainerPool>(seed).run(400.0);
    const Outcome got = ScriptDriver<ContainerPool>(seed).run(400.0);
    // The script reaches every path it means to.
    ASSERT_GT(ref.ready.size(), 200u);
    ASSERT_GT(ref.failed.size(), 10u);
    ASSERT_GT(ref.victims.size(), 10u);
    ASSERT_GT(ref.gone.size(), ref.victims.size() + ref.failed.size() + 100);

    EXPECT_EQ(got.ready, ref.ready);
    EXPECT_EQ(got.failed, ref.failed);
    EXPECT_EQ(got.gone, ref.gone);
    EXPECT_EQ(got.victims, ref.victims);
    EXPECT_EQ(got.counts, ref.counts);
    EXPECT_EQ(got.starting, ref.starting);
    EXPECT_EQ(got.memory, ref.memory);  // bit-equal doubles
    EXPECT_EQ(got.cold_starts, ref.cold_starts);
    EXPECT_EQ(got.evictions, ref.evictions);
    EXPECT_EQ(got.boot_failures, ref.boot_failures);
    EXPECT_EQ(got.peak_containers, ref.peak_containers);
    // One timer instead of one event per idle container. (It can fire
    // more often than the reference's expiries: a reused or destroyed
    // front leaves it armed early, and it wakes up to re-arm.)
    EXPECT_LT(got.max_pending, ref.max_pending);
  }
}

/// Engine events pending once `n` containers have booted and sit idle.
template <typename Pool>
std::size_t pending_with_idle(int n) {
  sim::Engine engine;
  Pool pool(engine, 1024.0 * n, 60.0);
  const FunctionId fn = pool.add_function();
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(
        pool.start(fn, 1024.0, 1.0 + 0.1 * i, [](ContainerId) {}).has_value());
  }
  engine.run_until(1.0 + 0.1 * n);
  EXPECT_EQ(pool.counts(fn).idle, n);
  return engine.pending();
}

TEST(ContainerPoolReference, PendingEventsDoNotGrowWithIdleContainers) {
  for (const int n : {1, 4, 32}) {
    SCOPED_TRACE(n);
    EXPECT_EQ(pending_with_idle<ContainerPool>(n), 1u);
    EXPECT_EQ(pending_with_idle<testing::ReferenceContainerPool>(n),
              static_cast<std::size_t>(n));
  }
}

}  // namespace
}  // namespace amoeba::serverless
