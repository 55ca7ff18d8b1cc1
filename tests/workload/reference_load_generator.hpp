// Test-only reference model of PoissonLoadGenerator: one engine event per
// thinning candidate.
//
// This is the generator the simulator used before candidates were drawn
// without events, kept verbatim in its draws so tests can compare the
// production class against it. Every candidate arrival at max_rate is an
// event; the event evaluates the rate at its own time and accepts with
// probability rate/max_rate. Most candidates of a diurnal day are rejected,
// which is why it lives here and not in src/.
#pragma once

#include <cstdint>
#include <utility>

#include "common/assert.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "workload/load_generator.hpp"

namespace amoeba::workload::testing {

class ReferencePoissonLoadGenerator {
 public:
  /// Same arguments as PoissonLoadGenerator.
  ReferencePoissonLoadGenerator(sim::Engine& engine, sim::Rng rng,
                                RateFn rate, double max_rate,
                                ArrivalFn on_arrival)
      : engine_(engine),
        rng_(rng),
        rate_(std::move(rate)),
        max_rate_(max_rate),
        on_arrival_(std::move(on_arrival)) {
    AMOEBA_EXPECTS(max_rate > 0.0);
  }
  ~ReferencePoissonLoadGenerator() { stop(); }
  ReferencePoissonLoadGenerator(const ReferencePoissonLoadGenerator&) = delete;
  ReferencePoissonLoadGenerator& operator=(
      const ReferencePoissonLoadGenerator&) = delete;

  void start() {
    if (running_) return;
    running_ = true;
    schedule_next();
  }

  void stop() {
    running_ = false;
    if (pending_ != sim::kNoEvent) {
      engine_.cancel(pending_);
      pending_ = sim::kNoEvent;
    }
  }

  [[nodiscard]] std::uint64_t emitted() const noexcept { return emitted_; }

 private:
  void schedule_next() {
    const double gap = rng_.exponential(max_rate_);
    pending_ = engine_.schedule_in(gap, [this] {
      pending_ = sim::kNoEvent;
      if (!running_) return;
      const double lambda = rate_(engine_.now());
      if (lambda > 0.0 && rng_.uniform() < lambda / max_rate_) {
        ++emitted_;
        on_arrival_();
      }
      if (running_) schedule_next();
    });
  }

  sim::Engine& engine_;
  sim::Rng rng_;
  RateFn rate_;
  double max_rate_;
  ArrivalFn on_arrival_;
  sim::EventId pending_ = sim::kNoEvent;
  bool running_ = false;
  std::uint64_t emitted_ = 0;
};

}  // namespace amoeba::workload::testing
