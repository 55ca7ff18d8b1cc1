#include "sim/fair_share.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/random.hpp"
#include "reference_fair_share.hpp"
#include "support/callback_sink.hpp"
#include "support/rng_draws.hpp"

namespace amoeba::sim {
namespace {

using sim::testing::uniform_index;

TEST(FairShare, SingleStreamRunsAtItsCap) {
  Engine e;
  testing::CallbackSink sink;
  FairShareResource cpu(e, 4.0);
  double done_at = -1.0;
  sink.open(cpu, 2.0, 1.0, [&] { done_at = e.now(); });
  e.run();
  EXPECT_DOUBLE_EQ(done_at, 2.0);  // 2 units at rate 1
}

TEST(FairShare, UncappedStreamUsesFullCapacity) {
  Engine e;
  testing::CallbackSink sink;
  FairShareResource disk(e, 10.0);
  double done_at = -1.0;
  sink.open(disk, 20.0, 0.0, [&] { done_at = e.now(); });
  e.run();
  EXPECT_DOUBLE_EQ(done_at, 2.0);  // 20 units at rate 10
}

TEST(FairShare, EqualStreamsShareEqually) {
  Engine e;
  testing::CallbackSink sink;
  FairShareResource disk(e, 10.0);
  std::vector<double> done(2, -1.0);
  sink.open(disk, 10.0, 0.0, [&] { done[0] = e.now(); });
  sink.open(disk, 10.0, 0.0, [&] { done[1] = e.now(); });
  e.run();
  // Both get rate 5 -> both finish at t = 2.
  EXPECT_DOUBLE_EQ(done[0], 2.0);
  EXPECT_DOUBLE_EQ(done[1], 2.0);
}

TEST(FairShare, CapLimitsAllocationWhenCapacityIsAmple) {
  Engine e;
  testing::CallbackSink sink;
  FairShareResource cpu(e, 40.0);
  double done_at = -1.0;
  // A container: 1-core cap.
  sink.open(cpu, 0.1, 1.0, [&] { done_at = e.now(); });
  e.run();
  EXPECT_DOUBLE_EQ(done_at, 0.1);
}

TEST(FairShare, MaxMinRedistributionBeyondCappedStreams) {
  Engine e;
  testing::CallbackSink sink;
  FairShareResource r(e, 10.0);
  // One stream capped at 2, one uncapped: capped gets 2, other gets 8.
  double done_small = -1.0, done_big = -1.0;
  sink.open(r, 2.0, 2.0, [&] { done_small = e.now(); });  // 2 units at rate 2
  sink.open(r, 8.0, 0.0, [&] { done_big = e.now(); });    // 8 units at rate 8
  e.run();
  EXPECT_DOUBLE_EQ(done_small, 1.0);
  EXPECT_DOUBLE_EQ(done_big, 1.0);
}

TEST(FairShare, LateArrivalSlowsExistingStream) {
  Engine e;
  testing::CallbackSink sink;
  FairShareResource r(e, 1.0);
  double done_a = -1.0, done_b = -1.0;
  // Alone, A would finish at 1.0.
  sink.open(r, 1.0, 0.0, [&] { done_a = e.now(); });
  e.schedule(0.5, [&] {
    sink.open(r, 1.0, 0.0, [&] { done_b = e.now(); });
  });
  e.run();
  // A does 0.5 work by t=0.5, then shares: remaining 0.5 at rate 0.5 -> 1.5.
  EXPECT_DOUBLE_EQ(done_a, 1.5);
  // B: 0.5 at rate 0.5 until A leaves (t=1.5, 0.5 work done), then rate 1:
  // remaining 0.5 -> finishes at 2.0.
  EXPECT_DOUBLE_EQ(done_b, 2.0);
}

TEST(FairShare, DepartureSpeedsUpRemainder) {
  Engine e;
  testing::CallbackSink sink;
  FairShareResource r(e, 2.0);
  double done_long = -1.0;
  sink.open(r, 1.0, 0.0, [&] {});  // finishes at t=1 (rate 1)
  sink.open(r, 3.0, 0.0, [&] { done_long = e.now(); });  // rate 1, then 2
  e.run();
  // Long stream: 1 unit by t=1, remaining 2 at rate 2 -> done at t=2.
  EXPECT_DOUBLE_EQ(done_long, 2.0);
}

TEST(FairShare, CloseReturnsRemainingWork) {
  Engine e;
  testing::CallbackSink sink;
  FairShareResource r(e, 1.0);
  const StreamId id =
      sink.open(r, 10.0, 0.0, [] { FAIL() << "must not complete"; });
  e.schedule(4.0, [&] {
    const double remaining = r.close(id);
    EXPECT_DOUBLE_EQ(remaining, 6.0);
  });
  e.run();
  EXPECT_EQ(r.active(), 0);
}

TEST(FairShare, CloseUnknownStreamReturnsZero) {
  Engine e;
  FairShareResource r(e, 1.0);
  EXPECT_DOUBLE_EQ(r.close(12345), 0.0);
}

TEST(FairShare, ZeroWorkCompletesViaEventNotReentrantly) {
  Engine e;
  testing::CallbackSink sink;
  FairShareResource r(e, 1.0);
  bool done = false;
  sink.open(r, 0.0, 0.0, [&] { done = true; });
  EXPECT_FALSE(done);  // not re-entrant
  e.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(e.now(), 0.0);  // but at the same instant
}

TEST(FairShare, PressureSumsCappedDemands) {
  Engine e;
  testing::CallbackSink sink;
  FairShareResource cpu(e, 4.0);
  sink.open(cpu, 100.0, 1.0, [] {});
  sink.open(cpu, 100.0, 1.0, [] {});
  EXPECT_DOUBLE_EQ(cpu.pressure(), 0.5);  // 2 cores demanded of 4
  sink.open(cpu, 100.0, 0.0, [] {});  // uncapped demands everything
  EXPECT_DOUBLE_EQ(cpu.pressure(), 1.5);
}

TEST(FairShare, UtilizationReflectsAllocation) {
  Engine e;
  testing::CallbackSink sink;
  FairShareResource cpu(e, 4.0);
  EXPECT_DOUBLE_EQ(cpu.utilization(), 0.0);
  sink.open(cpu, 100.0, 1.0, [] {});
  EXPECT_DOUBLE_EQ(cpu.utilization(), 0.25);
}

TEST(FairShare, BusyIntegralAccumulates) {
  Engine e;
  testing::CallbackSink sink;
  FairShareResource cpu(e, 2.0);
  sink.open(cpu, 2.0, 1.0, [] {});  // rate 1 for 2 seconds
  e.run();
  EXPECT_NEAR(cpu.busy_capacity_seconds(e.now()), 2.0, 1e-9);
  // Idle afterwards: integral frozen.
  e.schedule(10.0, [] {});
  e.run();
  EXPECT_NEAR(cpu.busy_capacity_seconds(e.now()), 2.0, 1e-9);
}

TEST(FairShare, RateOfReportsCurrentAllocation) {
  Engine e;
  testing::CallbackSink sink;
  FairShareResource r(e, 3.0);
  const StreamId a = sink.open(r, 100.0, 1.0, [] {});
  EXPECT_DOUBLE_EQ(r.rate_of(a), 1.0);
  sink.open(r, 100.0, 0.0, [] {});
  EXPECT_DOUBLE_EQ(r.rate_of(a), 1.0);  // capped stream keeps its cap
  EXPECT_DOUBLE_EQ(r.rate_of(9999), 0.0);
}

TEST(FairShare, ManyStreamsConserveWork) {
  Engine e;
  testing::CallbackSink sink;
  FairShareResource r(e, 8.0);
  int completed = 0;
  for (int i = 0; i < 100; ++i) {
    sink.open(r, 1.0, 1.0, [&] { ++completed; });
  }
  e.run();
  EXPECT_EQ(completed, 100);
  // 100 units of work through an 8-unit/s resource with 1-unit/s caps:
  // work-conserving finish no earlier than 100/8 s.
  EXPECT_GE(e.now(), 100.0 / 8.0 - 1e-9);
  EXPECT_NEAR(r.busy_capacity_seconds(e.now()), 100.0, 1e-6);
}

TEST(FairShare, CompletionCallbackCanOpenNewStream) {
  Engine e;
  testing::CallbackSink sink;
  FairShareResource r(e, 1.0);
  double second_done = -1.0;
  sink.open(r, 1.0, 0.0, [&] {
    sink.open(r, 1.0, 0.0, [&] { second_done = e.now(); });
  });
  e.run();
  EXPECT_DOUBLE_EQ(second_done, 2.0);
}

TEST(FairShare, InvalidConstructionThrows) {
  Engine e;
  EXPECT_THROW(FairShareResource(e, 0.0), ContractError);
  EXPECT_THROW(FairShareResource(e, -1.0), ContractError);
}

TEST(FairShare, NegativeWorkThrows) {
  Engine e;
  testing::CallbackSink sink;
  FairShareResource r(e, 1.0);
  EXPECT_THROW(sink.open(r, -1.0, 0.0, [] {}), ContractError);
}

TEST(FairShare, InterferenceSlowsStreamsGradually) {
  // With interference γ, a lone capped stream on an 8-unit resource runs
  // at 1 / (1 + γ·(1/8)); two streams at 1 / (1 + γ·(2/8)); etc.
  Engine e;
  testing::CallbackSink sink;
  FairShareResource cpu(e, 8.0, /*interference=*/0.4);
  const StreamId a = sink.open(cpu, 100.0, 1.0, [] {});
  EXPECT_NEAR(cpu.rate_of(a), 1.0 / (1.0 + 0.4 * 0.125), 1e-12);
  sink.open(cpu, 100.0, 1.0, [] {});
  EXPECT_NEAR(cpu.rate_of(a), 1.0 / (1.0 + 0.4 * 0.25), 1e-12);
}

TEST(FairShare, InterferenceCompletionTimesConsistent) {
  Engine e;
  testing::CallbackSink sink;
  FairShareResource cpu(e, 4.0, 0.5);
  double done = -1.0;
  sink.open(cpu, 1.0, 1.0, [&] { done = e.now(); });
  e.run();
  // Rate = 1/(1 + 0.5*0.25) = 8/9 -> completion at 9/8.
  EXPECT_NEAR(done, 1.125, 1e-9);
}

TEST(FairShare, ZeroInterferenceIsPureMaxMin) {
  Engine e;
  testing::CallbackSink sink;
  FairShareResource cpu(e, 8.0, 0.0);
  const StreamId a = sink.open(cpu, 100.0, 1.0, [] {});
  EXPECT_DOUBLE_EQ(cpu.rate_of(a), 1.0);
}

TEST(FairShare, NegativeInterferenceRejected) {
  Engine e;
  EXPECT_THROW(FairShareResource(e, 8.0, -0.1), ContractError);
}

TEST(FairShare, SimultaneousCompletionsAllFire) {
  Engine e;
  testing::CallbackSink sink;
  FairShareResource r(e, 2.0);
  int completed = 0;
  sink.open(r, 1.0, 1.0, [&] { ++completed; });
  sink.open(r, 1.0, 1.0, [&] { ++completed; });
  e.run();
  EXPECT_EQ(completed, 2);
  EXPECT_DOUBLE_EQ(e.now(), 1.0);
}

// --- Tag attribution -------------------------------------------------------
// Caps are dyadic so every sum below is exact whatever order it is taken in.
// Tags are client ids; kNobody was never used to open a stream.
constexpr StreamTag kA = 0;
constexpr StreamTag kB = 1;
constexpr StreamTag kC = 2;
constexpr StreamTag kIo = 3;
constexpr StreamTag kNobody = 99;

TEST(FairShareTags, DemandIsAttributedPerTag) {
  Engine e;
  testing::CallbackSink sink;
  FairShareResource cpu(e, 8.0);
  sink.open(cpu, 100.0, 1.0, [] {}, kA);
  sink.open(cpu, 100.0, 1.0, [] {}, kA);
  sink.open(cpu, 100.0, 0.5, [] {}, kB);
  sink.open(cpu, 100.0, 2.0, [] {}, kC);
  EXPECT_DOUBLE_EQ(cpu.demand_of(kA), 2.0);
  EXPECT_DOUBLE_EQ(cpu.demand_of(kB), 0.5);
  EXPECT_DOUBLE_EQ(cpu.demand_of(kC), 2.0);
  EXPECT_DOUBLE_EQ(cpu.demand_of(kNobody), 0.0);
  EXPECT_DOUBLE_EQ(cpu.pressure_of(kA), 0.25);
  EXPECT_DOUBLE_EQ(cpu.pressure_of(kB), 0.0625);
  EXPECT_DOUBLE_EQ(cpu.pressure(), 0.5625);
  EXPECT_DOUBLE_EQ(cpu.external_pressure(kA), 0.3125);
  EXPECT_DOUBLE_EQ(cpu.external_pressure(kNobody), 0.5625);

  // The three tags carry all of the demand.
  EXPECT_DOUBLE_EQ(cpu.demand_of(kA) + cpu.demand_of(kB) + cpu.demand_of(kC),
                   cpu.pressure() * cpu.capacity());
}

TEST(FairShareTags, UncappedStreamDemandsFullCapacity) {
  Engine e;
  testing::CallbackSink sink;
  FairShareResource disk(e, 4.0);
  sink.open(disk, 100.0, 0.0, [] {}, kIo);
  sink.open(disk, 100.0, 16.0, [] {}, kIo);  // cap clamped to capacity
  EXPECT_DOUBLE_EQ(disk.demand_of(kIo), 8.0);
  EXPECT_DOUBLE_EQ(disk.pressure_of(kIo), 2.0);
}

TEST(FairShareTags, UntaggedStreamsAreExternalToEveryTag) {
  Engine e;
  testing::CallbackSink sink;
  FairShareResource cpu(e, 4.0);
  sink.open(cpu, 100.0, 1.0, [] {});  // untagged
  sink.open(cpu, 100.0, 0.5, [] {});  // untagged
  sink.open(cpu, 100.0, 1.0, [] {}, kA);
  sink.open(cpu, 100.0, 0.5, [] {}, kB);
  EXPECT_DOUBLE_EQ(cpu.external_pressure(kA), 0.5);    // 1.5 + 0.5 of 4
  EXPECT_DOUBLE_EQ(cpu.external_pressure(kB), 0.625);  // 1.5 + 1.0 of 4
  EXPECT_DOUBLE_EQ(cpu.external_pressure(kNobody), cpu.pressure());
  // Untagged demand belongs to no tag.
  EXPECT_DOUBLE_EQ(cpu.demand_of(kUntagged), 0.0);
  // Tagged demand is exactly the two tagged streams' caps.
  EXPECT_DOUBLE_EQ(cpu.demand_of(kA) + cpu.demand_of(kB), 1.5);
}

TEST(FairShareTags, DepartedTagReadsExactlyZero) {
  Engine e;
  testing::CallbackSink sink;
  FairShareResource cpu(e, 3.0, /*interference=*/0.2);
  // Caps that do not sum exactly in binary: float dust must not linger.
  const StreamId a1 = sink.open(cpu, 100.0, 0.1, [] {}, kA);
  sink.open(cpu, 1.0, 0.7, [] {}, kA);  // completes on its own
  const StreamId a3 = sink.open(cpu, 100.0, 0.3, [] {}, kA);
  sink.open(cpu, 100.0, 0.5, [] {}, kB);
  e.schedule(10.0, [&] {
    cpu.close(a1);
    cpu.close(a3);
  });
  e.run_until(20.0);
  EXPECT_EQ(cpu.demand_of(kA), 0.0);
  EXPECT_EQ(cpu.pressure_of(kA), 0.0);
  EXPECT_EQ(cpu.external_pressure(kB), 0.0);  // only kB is live
  EXPECT_DOUBLE_EQ(cpu.demand_of(kB), 0.5);
  EXPECT_DOUBLE_EQ(cpu.external_pressure(kA), 0.5 / 3.0);
}

TEST(FairShareTags, CompletedStreamsReleaseTheirDemand) {
  Engine e;
  testing::CallbackSink sink;
  FairShareResource net(e, 2.0);
  sink.open(net, 1.0, 1.0, [] {}, kA);
  sink.open(net, 3.0, 1.0, [] {}, kB);
  e.run_until(2.0);  // kA drained at t=1, kB is still running
  EXPECT_EQ(net.demand_of(kA), 0.0);
  EXPECT_DOUBLE_EQ(net.demand_of(kB), 1.0);
  e.run();
  EXPECT_EQ(net.demand_of(kB), 0.0);
  EXPECT_EQ(net.demand_of(kA) + net.demand_of(kB), 0.0);
  EXPECT_EQ(net.pressure(), 0.0);
}

// --- Physics oracles -------------------------------------------------------

TEST(FairShareOracle, EqualUncappedStreamsSplitCapacityEvenly) {
  // k identical uncapped streams with no interference each get C/k, and the
  // allocation is work-conserving: rates sum to C and all k streams of work
  // w drain together at k·w/C.
  for (int k = 1; k <= 24; ++k) {
    Engine e;
    testing::CallbackSink sink;
    const double capacity = 7.5;
    FairShareResource r(e, capacity);
    std::vector<StreamId> ids;
    std::vector<double> done;
    for (int i = 0; i < k; ++i) {
      ids.push_back(sink.open(r, 3.0, 0.0, [&] { done.push_back(e.now()); }));
    }
    double sum = 0.0;
    for (StreamId id : ids) {
      EXPECT_NEAR(r.rate_of(id), capacity / k, 1e-12 * capacity) << "k=" << k;
      sum += r.rate_of(id);
    }
    EXPECT_NEAR(sum, capacity, 1e-12 * capacity) << "k=" << k;
    EXPECT_NEAR(r.utilization(), 1.0, 1e-12) << "k=" << k;
    e.run();
    ASSERT_EQ(done.size(), static_cast<std::size_t>(k));
    for (double t : done) EXPECT_NEAR(t, k * 3.0 / capacity, 1e-9) << "k=" << k;
  }
}

/// Mean sojourn time of one M/M/1-PS replication: Poisson(λ = ρ) arrivals
/// of Exp(1) work on a single uncapped capacity-1 resource, so E[S] = 1.
/// Jobs arriving in [warmup, horizon) are measured; all of them drain.
double mm1_ps_mean_sojourn(double rho, std::uint64_t seed, double warmup,
                           double horizon) {
  Engine e;
  testing::CallbackSink sink;
  Rng rng(seed);
  FairShareResource server(e, 1.0);
  double sum = 0.0;
  std::uint64_t n = 0;
  std::function<void()> arrive = [&] {
    const double t0 = e.now();
    const bool measured = t0 >= warmup;
    sink.open(server, rng.exponential(1.0), 0.0, [&, t0, measured] {
      if (!measured) return;
      sum += e.now() - t0;
      ++n;
    });
    const double next = t0 + rng.exponential(rho);
    if (next < horizon) e.schedule(next, arrive);
  };
  e.schedule(rng.exponential(rho), arrive);
  e.run();
  return sum / static_cast<double>(n);
}

TEST(FairShareOracle, MM1ProcessorSharingMeanSojourn) {
  // Processor sharing on one server: E[T] = E[S] / (1 - ρ). R independent
  // replications give an unbiased confidence interval without modelling
  // the strong autocorrelation of sojourn times within one run. The bound
  // is the two-sided 99.9% Student-t interval (t_{0.9995, 19} = 3.883),
  // and the interval must itself be tight (half-width under 8% of E[T])
  // so the check has teeth.
  constexpr int kReplications = 20;
  constexpr double kT = 3.883;
  for (const double rho : {0.5, 0.8}) {
    double sum = 0.0, sum_sq = 0.0;
    for (int rep = 0; rep < kReplications; ++rep) {
      const std::uint64_t seed =
          std::uint64_t{0x5eed0000} + static_cast<std::uint64_t>(rep);
      const double m = mm1_ps_mean_sojourn(rho, seed, 500.0, 20000.0);
      sum += m;
      sum_sq += m * m;
    }
    const double mean = sum / kReplications;
    const double var =
        (sum_sq - kReplications * mean * mean) / (kReplications - 1);
    const double half_width = kT * std::sqrt(var / kReplications);
    const double expected = 1.0 / (1.0 - rho);
    EXPECT_LT(half_width, 0.08 * expected) << "rho=" << rho;
    EXPECT_NEAR(mean, expected, half_width)
        << "rho=" << rho << " mean=" << mean << " expected=" << expected;
  }
}

// --- Seeded workout: bit-exact anchor and differential test ----------------
// A seeded random workout of a fair-share resource that records every
// observable double: completion instants, rate_of() of every live stream
// after each change, busy_capacity_seconds() and close() remainders, plus the
// order in which streams complete. The anchor folds the record of
// FairShareResource, bit for bit, into one hash together with the engine's
// event-trace hash (which pins the schedule/cancel sequence). The
// differential test runs the same workout on the per-stream water-filling
// reference model and compares the two records.

std::uint64_t mix(std::uint64_t h, std::uint64_t w) {
  h ^= w;
  h *= 0x100000001b3ULL;  // FNV-1a prime, one 64-bit word at a time
  return h;
}

/// One observed double and the scale its tolerance is relative to.
struct Observation {
  double value = 0.0;
  double scale = 0.0;
};

struct StressOutcome {
  std::vector<Observation> observed;
  std::vector<std::size_t> completion_order;  // open ordinals
  std::uint64_t engine_hash = 0;
  int midflight_closes = 0;   // close() with work still remaining
  int reentrant_opens = 0;    // open() from inside a completion callback
  int simultaneous = 0;       // completions at the previous one's instant

  [[nodiscard]] std::uint64_t hash() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const Observation& o : observed) {
      h = mix(h, std::bit_cast<std::uint64_t>(o.value));
    }
    for (std::size_t k : completion_order) h = mix(h, k);
    return mix(h, engine_hash);
  }
};

template <typename Resource>
StressOutcome stress_run(std::uint64_t seed) {
  constexpr double kCapacity = 4.0;
  Engine e;
  testing::CallbackSink sink;
  Rng rng(seed);
  Resource r(e, kCapacity, /*interference=*/0.3);
  // Mixed caps, including uncapped (0) and a cap above capacity.
  constexpr std::array<double, 6> kCaps = {0.0, 0.5, 1.0, 1.0, 2.5, 9.0};
  std::vector<StreamId> ids;  // by open ordinal
  std::vector<double> works;
  std::vector<bool> live;
  int reentrant_budget = 150;
  StressOutcome out;
  double last_completion = -1.0;
  auto observe = [&](double v, double scale) {
    out.observed.push_back({v, scale});
  };

  auto probe = [&] {
    observe(e.now(), 1.0);
    observe(r.busy_capacity_seconds(e.now()), kCapacity);
    for (std::size_t k = 0; k < ids.size(); ++k) {
      if (live[k]) observe(r.rate_of(ids[k]), kCapacity);
    }
  };

  std::function<void(double, double)> open_one = [&](double work,
                                                     double cap) {
    const std::size_t k = ids.size();
    ids.push_back(0);
    works.push_back(work);
    live.push_back(true);
    ids[k] = sink.open(r, work, cap, [&, k] {
      live[k] = false;
      if (e.now() == last_completion) ++out.simultaneous;
      last_completion = e.now();
      out.completion_order.push_back(k);
      probe();
      // Re-entrant open from inside a completion callback.
      if (reentrant_budget > 0 && rng.uniform() < 0.3) {
        --reentrant_budget;
        ++out.reentrant_opens;
        open_one(rng.exponential(1.5), kCaps[uniform_index(rng, kCaps.size())]);
      }
    });
  };

  int arrivals = 300;
  std::function<void()> arrive = [&] {
    const double u = rng.uniform();
    const double cap = kCaps[uniform_index(rng, kCaps.size())];
    if (u < 0.15) {
      // Identical streams opened together complete simultaneously.
      const double work = rng.exponential(1.0);
      for (int j = 0; j < 3; ++j) open_one(work, cap);
    } else if (u < 0.2) {
      open_one(0.0, cap);
    } else if (u < 0.25) {
      // Drained together with descending caps: callbacks must still fire
      // in id order, not in (cap, id) order.
      open_one(0.0, 2.5);
      open_one(0.0, 0.5);
    } else {
      open_one(rng.exponential(1.0), cap);
    }
    probe();
    if (--arrivals > 0) e.schedule_in(rng.exponential(3.0), arrive);
  };

  int closes = 60;
  std::function<void()> close_some = [&] {
    // Abort a random live stream mid-flight.
    std::vector<std::size_t> alive;
    for (std::size_t k = 0; k < live.size(); ++k) {
      if (live[k]) alive.push_back(k);
    }
    if (!alive.empty()) {
      const std::size_t k = alive[uniform_index(rng, alive.size())];
      live[k] = false;
      const double remaining = r.close(ids[k]);
      if (remaining > 0.0) ++out.midflight_closes;
      observe(remaining, works[k]);
      probe();
    }
    if (--closes > 0) e.schedule_in(rng.exponential(0.6), close_some);
  };

  e.schedule(0.0, arrive);
  e.schedule(0.3, close_some);
  e.run();
  observe(r.busy_capacity_seconds(e.now()), kCapacity);
  observe(static_cast<double>(ids.size()), 0.0);
  observe(static_cast<double>(r.active()), 0.0);
  out.engine_hash = e.trace_hash();
  return out;
}

TEST(FairShareAnchor, RandomWorkoutIsBitIdenticalToRecordedHashes) {
  // Recorded on the virtual-clock (cap-class) implementation; any change to
  // its arithmetic or its order moves them.
  constexpr std::array<std::uint64_t, 3> kExpected = {
      0x2ab8ec7f356c1ab8ULL, 0xd0d47826d050d9b3ULL, 0xf90810f1adf913f9ULL};
  for (std::uint64_t seed = 1; seed <= kExpected.size(); ++seed) {
    const StressOutcome o = stress_run<FairShareResource>(seed);
    EXPECT_EQ(o.hash(), kExpected[seed - 1])
        << "seed " << seed << " got 0x" << std::hex << o.hash();
    // The workout really exercises the paths it is meant to pin.
    EXPECT_GT(o.midflight_closes, 10) << "seed " << seed;
    EXPECT_GT(o.reentrant_opens, 10) << "seed " << seed;
    EXPECT_GT(o.simultaneous, 10) << "seed " << seed;
  }
}

/// |a - b| within `rel` of the larger of |a|, |b| and the observation's scale.
bool close_enough(const Observation& a, const Observation& b, double rel) {
  const double scale =
      std::max({std::abs(a.value), std::abs(b.value), a.scale, b.scale});
  return std::abs(a.value - b.value) <= rel * scale;
}

TEST(FairShareDifferential, WorkoutMatchesPerStreamWaterFilling) {
  // Same workout on FairShareResource and on the reference model of the
  // per-stream water-filling it replaced: the same streams complete in the
  // same order, and every observed double agrees to 1e-9 relative.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const StressOutcome got = stress_run<FairShareResource>(seed);
    const StressOutcome want = stress_run<testing::ReferenceFairShare>(seed);
    ASSERT_EQ(got.completion_order, want.completion_order) << "seed " << seed;
    ASSERT_EQ(got.observed.size(), want.observed.size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.observed.size(); ++i) {
      ASSERT_TRUE(close_enough(got.observed[i], want.observed[i], 1e-9))
          << "seed " << seed << " observation " << i << ": "
          << got.observed[i].value << " vs " << want.observed[i].value;
    }
    EXPECT_EQ(got.midflight_closes, want.midflight_closes) << "seed " << seed;
    EXPECT_EQ(got.reentrant_opens, want.reentrant_opens) << "seed " << seed;
    EXPECT_EQ(got.simultaneous, want.simultaneous) << "seed " << seed;
  }
}

/// Byte-scale workout that keeps the resource busy without a break, so the
/// virtual clock grows large and finish - served loses the most precision:
/// a NIC-sized uncapped resource (25 Gbit/s) with one long stream open for
/// the whole run and Poisson arrivals of overlapping uncapped transfers.
template <typename Resource>
StressOutcome long_busy_run(std::uint64_t seed) {
  constexpr double kCapacity = 3.125e9;  // bytes/s
  constexpr double kBusyFor = 1e4;       // simulated seconds
  Engine e;
  testing::CallbackSink sink;
  Rng rng(seed);
  Resource r(e, kCapacity);
  StressOutcome out;
  auto observe = [&](double v, double scale) {
    out.observed.push_back({v, scale});
  };
  std::size_t opened = 0;
  const double long_work = kCapacity * kBusyFor;
  const StreamId long_id = sink.open(r, long_work, 0.0, [] {});
  std::function<void()> arrive = [&] {
    const std::size_t k = opened++;
    const double work = rng.exponential(1.0 / 2.5e8);  // mean 0.08 s alone
    const StreamId id = sink.open(r, work, 0.0, [&, k] {
      out.completion_order.push_back(k);
      observe(e.now(), 1.0);
      observe(r.busy_capacity_seconds(e.now()), kCapacity);
    });
    observe(r.rate_of(id), kCapacity);
    const double next = e.now() + rng.exponential(10.0);
    if (next < kBusyFor) e.schedule(next, arrive);
  };
  e.schedule(0.0, arrive);
  e.schedule(kBusyFor, [&] {
    observe(r.rate_of(long_id), kCapacity);
    observe(r.close(long_id), long_work);
  });
  e.run();
  observe(r.busy_capacity_seconds(e.now()), kCapacity);
  return out;
}

TEST(FairShareDifferential, LongBusyByteScaleResourceKeepsPrecision) {
  const StressOutcome got = long_busy_run<FairShareResource>(7);
  const StressOutcome want = long_busy_run<testing::ReferenceFairShare>(7);
  ASSERT_GT(got.completion_order.size(), 50000u);
  ASSERT_EQ(got.completion_order, want.completion_order);
  ASSERT_EQ(got.observed.size(), want.observed.size());
  for (std::size_t i = 0; i < got.observed.size(); ++i) {
    ASSERT_TRUE(close_enough(got.observed[i], want.observed[i], 1e-9))
        << "observation " << i << ": " << got.observed[i].value << " vs "
        << want.observed[i].value;
  }
}

}  // namespace
}  // namespace amoeba::sim
