// Open-loop query generators.
//
// `PoissonLoadGenerator` emits arrivals as a non-homogeneous Poisson
// process whose rate follows an arbitrary rate function or a DiurnalTrace,
// using Lewis & Shedler thinning against the rate upper bound. Rejected
// candidates are drawn without becoming engine events, so the rate must be
// a pure function of t: it is evaluated ahead of the simulation clock. A
// trace's envelope decides most candidates without evaluating its rate.
// `ConstantLoadGenerator` is the fixed-rate special case used by profiling
// sweeps.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "workload/diurnal_trace.hpp"

namespace amoeba::workload {

/// Callback invoked once per generated query at its arrival time.
using ArrivalFn = std::function<void()>;

/// Rate function lambda(t) in queries/second.
using RateFn = std::function<double(double)>;

class PoissonLoadGenerator {
 public:
  /// `max_rate` must bound `rate(t)` for all t (thinning envelope).
  PoissonLoadGenerator(sim::Engine& engine, sim::Rng rng, RateFn rate,
                       double max_rate, ArrivalFn on_arrival);
  /// Arrivals at `trace`'s rate, bounded by its max_rate(). `trace` must
  /// outlive the generator and serve no other caller concurrently (its
  /// noise memo). The arrivals are bit-identical to those of a generator
  /// built from `trace.rate` and `trace.max_rate()`.
  PoissonLoadGenerator(sim::Engine& engine, sim::Rng rng,
                       const DiurnalTrace& trace, ArrivalFn on_arrival);
  ~PoissonLoadGenerator();
  PoissonLoadGenerator(const PoissonLoadGenerator&) = delete;
  PoissonLoadGenerator& operator=(const PoissonLoadGenerator&) = delete;

  /// Begin emitting arrivals from the current simulation time.
  void start();

  /// Stop emitting (cancels the pending arrival). A later start() draws
  /// the same arrivals a generator that never stopped would have drawn
  /// from the restart on.
  void stop();

  [[nodiscard]] std::uint64_t emitted() const noexcept { return emitted_; }
  /// Thinning candidates drawn so far, and how many of them needed the
  /// exact rate because the envelope could not decide them.
  [[nodiscard]] std::uint64_t candidates() const noexcept {
    return candidates_;
  }
  [[nodiscard]] std::uint64_t exact_rate_calls() const noexcept {
    return exact_rate_calls_;
  }

 private:
  /// Rejections in a row after which a candidate is scheduled as an event
  /// that emits nothing and resumes the walk.
  static constexpr int kMaxRejections = 64;
  /// Relative slack by which a rate may exceed the declared max_rate.
  static constexpr double kRateSlack = 1e-9;

  void schedule_next();
  /// Bounds on the rate at t: the trace's envelope, or [0, max_rate] (with
  /// its slack) for a plain rate function, whose candidates all take the
  /// exact branch.
  [[nodiscard]] RateBounds envelope(double t) const;
  /// rate(t), checked against the declared bound and the envelope.
  double exact_rate(double t, const RateBounds& env);

  sim::Engine& engine_;
  sim::Rng rng_;
  /// The rng and the clock when the pending walk began, for stop().
  sim::Rng walk_rng_;
  double walk_start_ = 0.0;
  RateFn rate_;
  double max_rate_;
  /// The trace the rate comes from, or null for a plain rate function.
  const DiurnalTrace* trace_ = nullptr;
  ArrivalFn on_arrival_;
  sim::EventId pending_ = sim::kNoEvent;
  bool running_ = false;
  std::uint64_t emitted_ = 0;
  std::uint64_t candidates_ = 0;
  std::uint64_t exact_rate_calls_ = 0;
};

/// Fixed-rate Poisson generator (profiling sweeps, meters).
class ConstantLoadGenerator {
 public:
  ConstantLoadGenerator(sim::Engine& engine, sim::Rng rng, double rate_qps,
                        ArrivalFn on_arrival);

  void start();
  void stop();
  /// Change the emission rate (takes effect from the next arrival).
  void set_rate(double rate_qps);

  [[nodiscard]] double rate() const noexcept { return rate_; }
  [[nodiscard]] std::uint64_t emitted() const noexcept { return emitted_; }

 private:
  void schedule_next();

  sim::Engine& engine_;
  sim::Rng rng_;
  double rate_;
  ArrivalFn on_arrival_;
  sim::EventId pending_ = sim::kNoEvent;
  bool running_ = false;
  std::uint64_t emitted_ = 0;
};

}  // namespace amoeba::workload
