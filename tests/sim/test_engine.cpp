#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/random.hpp"
#include "support/rng_draws.hpp"

namespace amoeba::sim {
namespace {

using sim::testing::uniform_index;

TEST(Engine, StartsAtTimeZero) {
  Engine e;
  EXPECT_DOUBLE_EQ(e.now(), 0.0);
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, ExecutesEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule(3.0, [&] { order.push_back(3); });
  e.schedule(1.0, [&] { order.push_back(1); });
  e.schedule(2.0, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
}

TEST(Engine, FifoTieBreakAtEqualTimestamps) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, ScheduleInIsRelative) {
  Engine e;
  double fired_at = -1.0;
  e.schedule(5.0, [&] {
    e.schedule_in(2.5, [&] { fired_at = e.now(); });
  });
  e.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool fired = false;
  const EventId id = e.schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(e.cancel(id));
  e.run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(e.empty());
}

TEST(Engine, CancelReturnsFalseForUnknownOrFired) {
  Engine e;
  const EventId id = e.schedule(1.0, [] {});
  e.run();
  EXPECT_FALSE(e.cancel(id));
  EXPECT_FALSE(e.cancel(999999));
}

TEST(Engine, CancelTwiceReturnsFalse) {
  Engine e;
  const EventId id = e.schedule(1.0, [] {});
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.cancel(id));
}

TEST(Engine, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Engine e;
  std::vector<double> fired;
  e.schedule(1.0, [&] { fired.push_back(1.0); });
  e.schedule(2.0, [&] { fired.push_back(2.0); });
  e.schedule(5.0, [&] { fired.push_back(5.0); });
  e.run_until(3.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
  EXPECT_EQ(e.pending(), 1u);
}

TEST(Engine, RunUntilExecutesEventExactlyAtBoundary) {
  Engine e;
  bool fired = false;
  e.schedule(3.0, [&] { fired = true; });
  e.run_until(3.0);
  EXPECT_TRUE(fired);
}

TEST(Engine, EventsScheduledDuringExecutionRun) {
  Engine e;
  int depth = 0;
  e.schedule(1.0, [&] {
    ++depth;
    e.schedule_in(1.0, [&] {
      ++depth;
      e.schedule_in(1.0, [&] { ++depth; });
    });
  });
  e.run();
  EXPECT_EQ(depth, 3);
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
}

TEST(Engine, SchedulingInThePastThrows) {
  Engine e;
  e.schedule(2.0, [] {});
  e.run();
  EXPECT_THROW(e.schedule(1.0, [] {}), ContractError);
}

TEST(Engine, ZeroDelayEventFiresAtCurrentTime) {
  Engine e;
  double t = -1.0;
  e.schedule(1.0, [&] { e.schedule_in(0.0, [&] { t = e.now(); }); });
  e.run();
  EXPECT_DOUBLE_EQ(t, 1.0);
}

TEST(Engine, ExecutedCountsFiredEventsOnly) {
  Engine e;
  const EventId id = e.schedule(1.0, [] {});
  e.schedule(2.0, [] {});
  e.cancel(id);
  e.run();
  EXPECT_EQ(e.executed(), 1u);
}

TEST(Engine, StepReturnsFalseOnEmpty) {
  Engine e;
  EXPECT_FALSE(e.step());
}

// ---------------------------------------------------------------------------
// Determinism anchors: trace hashes recorded against the pre-rewrite
// priority_queue engine. The slot-heap rewrite must keep the (timestamp,
// FIFO-seq) firing order bit-identical, so these constants must never change.
// Workload shapes mirror the probe used to record them.
// ---------------------------------------------------------------------------

std::uint64_t seed_stable_hash(std::uint64_t seed) {
  Engine engine;
  Rng rng(seed);
  for (int i = 0; i < 200; ++i) engine.schedule_in(rng.exponential(3.0), [] {});
  engine.run();
  return engine.trace_hash();
}

struct MixedResult {
  std::uint64_t hash;
  std::uint64_t fired;
  std::size_t pending;
};

// Mixed schedule/cancel/fire workload with id-reuse pressure: keeps a window
// of pending handles, cancels a deterministic subset, interleaves partial
// run_until() drains with fresh scheduling so slots are recycled mid-run.
MixedResult mixed_workload(std::uint64_t seed, int n) {
  Engine e;
  Rng rng(seed);
  std::vector<EventId> window;
  std::uint64_t fired = 0;
  for (int i = 0; i < n; ++i) {
    const EventId id = e.schedule_in(rng.exponential(1.0), [&fired] { ++fired; });
    window.push_back(id);
    if (window.size() >= 8) {
      e.cancel(window[2]);
      e.cancel(window[5]);
      window.clear();
      e.run_until(e.now() + 0.5);
    }
  }
  e.run();
  return {e.trace_hash(), fired, e.pending()};
}

TEST(Engine, TraceHashMatchesPreRewriteRecording) {
  EXPECT_EQ(seed_stable_hash(11), 0xa60f136d9d249ec9ULL);
  EXPECT_EQ(seed_stable_hash(12), 0x6a869f17c495d9deULL);
}

TEST(Engine, MixedWorkloadHashAndCountsMatchPreRewriteRecording) {
  const MixedResult a = mixed_workload(42, 5000);
  EXPECT_EQ(a.hash, 0x6267b2c2a71f281eULL);
  EXPECT_EQ(a.fired, 3750u);  // 2 of every 8 cancelled
  EXPECT_EQ(a.pending, 0u);
  const MixedResult b = mixed_workload(43, 5000);
  EXPECT_EQ(b.hash, 0x8213c3d3c02ffbd3ULL);
}

TEST(Engine, CancelledHandleStaysDeadAfterSlotReuse) {
  Engine e;
  const EventId a = e.schedule(1.0, [] {});
  ASSERT_TRUE(e.cancel(a));
  // The freed slot is recycled with a bumped generation; the stale handle
  // must not alias the new event.
  bool fired = false;
  const EventId b = e.schedule(2.0, [&] { fired = true; });
  EXPECT_NE(a, b);
  EXPECT_FALSE(e.cancel(a));  // stale generation
  e.run();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(e.cancel(b));  // already fired
}

TEST(Engine, CancelFromInsideHandler) {
  Engine e;
  bool victim_fired = false;
  const EventId victim = e.schedule(2.0, [&] { victim_fired = true; });
  bool cancelled = false;
  e.schedule(1.0, [&] { cancelled = e.cancel(victim); });
  e.run();
  EXPECT_TRUE(cancelled);
  EXPECT_FALSE(victim_fired);
  EXPECT_EQ(e.executed(), 1u);
}

TEST(Engine, CancellingTheFiringEventFromItsOwnHandlerFails) {
  Engine e;
  EventId self{};
  bool self_cancel = true;
  self = e.schedule(1.0, [&] { self_cancel = e.cancel(self); });
  e.run();
  // The event left the heap before its handler ran; cancel must report
  // "not pending" rather than corrupt the slot.
  EXPECT_FALSE(self_cancel);
  EXPECT_EQ(e.executed(), 1u);
}

TEST(Engine, RunUntilFiresBoundaryEventsAndAdvancesClock) {
  Engine e;
  int at_boundary = 0;
  int after = 0;
  e.schedule(1.0, [&] { ++at_boundary; });
  e.schedule(1.0, [&] { ++at_boundary; });  // FIFO twin at the boundary
  e.schedule(1.0 + 1e-9, [&] { ++after; });
  e.run_until(1.0);
  EXPECT_EQ(at_boundary, 2);  // t <= horizon fires, in schedule order
  EXPECT_EQ(after, 0);
  EXPECT_DOUBLE_EQ(e.now(), 1.0);  // clock lands exactly on the horizon
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_FALSE(e.empty());
  e.run();
  EXPECT_EQ(after, 1);
  EXPECT_TRUE(e.empty());
}

TEST(Engine, PendingAndEmptyTrackScheduleCancelFire) {
  Engine e;
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.pending(), 0u);
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i)
    ids.push_back(e.schedule(static_cast<double>(i), [] {}));
  EXPECT_EQ(e.pending(), 100u);
  for (std::size_t i = 0; i < 100; i += 2) EXPECT_TRUE(e.cancel(ids[i]));
  EXPECT_EQ(e.pending(), 50u);
  while (e.pending() > 25u) EXPECT_TRUE(e.step());
  EXPECT_EQ(e.pending(), 25u);
  e.run();
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.executed(), 50u);
}

TEST(Engine, InterleavedChurnStressWithIdReuse) {
  // Long-running churn: every slot is recycled many times over, cancels hit
  // both live and stale handles, and handlers reschedule. Checks the engine's
  // own accounting rather than a pinned hash (the hash anchors above already
  // pin ordering).
  Engine e;
  Rng rng(99);
  std::vector<EventId> live;
  std::uint64_t fired = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t cancelled = 0;
  std::vector<EventId> stale;
  for (int round = 0; round < 400; ++round) {
    for (int i = 0; i < 16; ++i) {
      live.push_back(e.schedule_in(rng.exponential(2.0), [&] {
        ++fired;
        if (fired % 7 == 0) {
          e.schedule_in(0.25, [&] { ++fired; });
          ++scheduled;
        }
      }));
      ++scheduled;
    }
    // Cancel a deterministic third of this round's batch.
    for (std::size_t i = 0; i + 3 <= live.size(); i += 3) {
      if (e.cancel(live[i])) {
        ++cancelled;
        stale.push_back(live[i]);
      }
    }
    live.clear();
    // Stale handles must never cancel a recycled slot's new occupant.
    for (const EventId id : stale) EXPECT_FALSE(e.cancel(id));
    e.run_until(e.now() + rng.exponential(4.0));
  }
  e.run();
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.executed(), fired);
  EXPECT_EQ(fired + cancelled, scheduled);
}

// --- reschedule -------------------------------------------------------------

TEST(Engine, RescheduleMovesAnEventUnderTheSameId) {
  Engine e;
  std::vector<int> order;
  const EventId a = e.schedule(5.0, [&] { order.push_back(1); });
  e.schedule(2.0, [&] { order.push_back(2); });
  e.reschedule(a, 1.0);  // earlier
  e.reschedule(a, 3.0);  // later again
  EXPECT_EQ(e.pending(), 2u);
  e.run_until(2.5);
  EXPECT_EQ(order, (std::vector<int>{2}));
  EXPECT_TRUE(e.cancel(a));  // still the live handle
  e.run();
  EXPECT_EQ(order, (std::vector<int>{2}));
}

TEST(Engine, RescheduleTakesAFreshSequenceNumberForFifoTies) {
  // A moved event queues behind the events already at its new time, exactly
  // as cancel-and-schedule would put it.
  Engine e;
  std::vector<char> order;
  const EventId a = e.schedule(1.0, [&] { order.push_back('a'); });
  e.schedule(1.0, [&] { order.push_back('b'); });
  const EventId c = e.schedule(2.0, [&] { order.push_back('c'); });
  e.schedule(1.0, [&] { order.push_back('d'); });
  e.reschedule(a, 1.0);  // same time, new place in the FIFO
  e.reschedule(c, 1.0);
  e.run();
  EXPECT_EQ(order, (std::vector<char>{'b', 'd', 'a', 'c'}));
}

TEST(Engine, RescheduleRejectsFiredCancelledAndFiringIds) {
  Engine e;
  const EventId fired = e.schedule(1.0, [] {});
  const EventId cancelled = e.schedule(2.0, [] {});
  ASSERT_TRUE(e.cancel(cancelled));
  EventId self = kNoEvent;
  bool threw = false;
  self = e.schedule(3.0, [&] {
    try {
      e.reschedule(self, 4.0);
    } catch (const ContractError&) {
      threw = true;
    }
  });
  const EventId later = e.schedule(10.0, [] {});
  e.run_until(3.0);
  EXPECT_TRUE(threw);  // mid-fire: it already left the heap
  EXPECT_THROW(e.reschedule(fired, 5.0), ContractError);
  EXPECT_THROW(e.reschedule(cancelled, 5.0), ContractError);
  EXPECT_THROW(e.reschedule(kNoEvent, 5.0), ContractError);
  EXPECT_THROW(e.reschedule(later, 2.0), ContractError);  // in the past
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_EQ(e.executed(), 3u);
}

/// One engine driven by the script below, moving events either with
/// reschedule() or with cancel() plus schedule().
struct ScriptSide {
  explicit ScriptSide(bool use_reschedule) : reschedule(use_reschedule) {}

  void add(Time at) {
    const int label = static_cast<int>(handle.size());
    handle.push_back(kNoEvent);
    pending.push_back(true);
    arm(label, at);
  }
  void arm(int label, Time at) {
    handle[static_cast<std::size_t>(label)] = e.schedule(at, [this, label] {
      pending[static_cast<std::size_t>(label)] = false;
      fired.push_back(label);
      // Every fifth event schedules a follow-up from inside its handler.
      if (label % 5 == 0) add(e.now() + 0.5);
    });
  }
  void move(int label, Time at) {
    if (reschedule) {
      e.reschedule(handle[static_cast<std::size_t>(label)], at);
    } else {
      ASSERT_TRUE(e.cancel(handle[static_cast<std::size_t>(label)]));
      arm(label, at);
    }
  }
  void drop(int label) {
    ASSERT_TRUE(e.cancel(handle[static_cast<std::size_t>(label)]));
    pending[static_cast<std::size_t>(label)] = false;
  }
  [[nodiscard]] std::vector<int> pending_labels() const {
    std::vector<int> out;
    for (std::size_t k = 0; k < pending.size(); ++k) {
      if (pending[k]) out.push_back(static_cast<int>(k));
    }
    return out;
  }

  bool reschedule;
  Engine e;
  std::vector<EventId> handle;  // by label
  std::vector<bool> pending;    // by label
  std::vector<int> fired;       // labels in firing order
};

TEST(Engine, RescheduleMatchesCancelAndScheduleOnRandomScripts) {
  // The same random script of schedules, moves, cancels and steps on two
  // engines: moving with reschedule() must fire the same events in the same
  // order at the same times, with the same trace hash. Times sit on a 0.25 s
  // grid so many events tie and the FIFO tie-break is exercised.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    ScriptSide moved(true);
    ScriptSide recreated(false);
    Rng rng(seed);
    int moves = 0;
    for (int op = 0; op < 4000; ++op) {
      const std::vector<int> live = moved.pending_labels();
      ASSERT_EQ(live, recreated.pending_labels()) << "seed " << seed;
      const double u = rng.uniform();
      const Time at =
          moved.e.now() + 0.25 * static_cast<double>(uniform_index(rng, 8));
      if (live.empty() || u < 0.3) {
        moved.add(at);
        recreated.add(at);
      } else if (u < 0.65) {
        const int label = live[uniform_index(rng, live.size())];
        moved.move(label, at);
        recreated.move(label, at);
        ++moves;
      } else if (u < 0.75) {
        const int label = live[uniform_index(rng, live.size())];
        moved.drop(label);
        recreated.drop(label);
      } else {
        ASSERT_EQ(moved.e.step(), recreated.e.step()) << "seed " << seed;
      }
    }
    moved.e.run();
    recreated.e.run();
    EXPECT_GT(moves, 1000) << "seed " << seed;
    EXPECT_GT(moved.fired.size(), 500u) << "seed " << seed;
    EXPECT_EQ(moved.fired, recreated.fired) << "seed " << seed;
    EXPECT_EQ(moved.e.now(), recreated.e.now()) << "seed " << seed;
    EXPECT_EQ(moved.e.executed(), recreated.e.executed()) << "seed " << seed;
    EXPECT_EQ(moved.e.trace_hash(), recreated.e.trace_hash())
        << "seed " << seed;
  }
}

TEST(Engine, ManyEventsStressOrdering) {
  Engine e;
  double last = -1.0;
  std::uint64_t count = 0;
  for (int i = 0; i < 10000; ++i) {
    const double t = static_cast<double>((i * 7919) % 1000);
    e.schedule(t, [&, t] {
      EXPECT_GE(t, last);
      last = t;
      ++count;
    });
  }
  e.run();
  EXPECT_EQ(count, 10000u);
}

}  // namespace
}  // namespace amoeba::sim
