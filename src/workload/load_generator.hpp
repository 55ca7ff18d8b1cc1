// Open-loop query generators.
//
// `PoissonLoadGenerator` emits arrivals as a non-homogeneous Poisson
// process whose rate follows an arbitrary rate function (typically a
// DiurnalTrace), using Lewis & Shedler thinning against the rate upper
// bound. Rejected candidates are drawn without becoming engine events, so
// the rate function must be a pure function of t: it is evaluated ahead of
// the simulation clock. `ConstantLoadGenerator` is the fixed-rate special
// case used by profiling sweeps.
#pragma once

#include <functional>
#include <utility>

#include "sim/engine.hpp"
#include "sim/random.hpp"

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

 private:
  /// Rejections in a row after which a candidate is scheduled as an event
  /// that emits nothing and resumes the walk.
  static constexpr int kMaxRejections = 64;

  void schedule_next();

  sim::Engine& engine_;
  sim::Rng rng_;
  /// The rng and the clock when the pending walk began, for stop().
  sim::Rng walk_rng_;
  double walk_start_ = 0.0;
  RateFn rate_;
  double max_rate_;
  ArrivalFn on_arrival_;
  sim::EventId pending_ = sim::kNoEvent;
  bool running_ = false;
  std::uint64_t emitted_ = 0;
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
