// A countable, non-shared resource (memory megabytes, VM slots).
//
// Unlike `FairShareResource`, a counting resource is either held or not:
// a container that acquired 256 MB keeps all 256 MB until it releases it.
// The class tracks the time-integral of held units for the resource-usage
// accounting behind the paper's Fig. 11/13/14.
#pragma once

#include "sim/engine.hpp"

namespace amoeba::sim {

class CountingResource {
 public:
  CountingResource(Engine& engine, double capacity);

  /// Try to take `amount` units. Returns false (without side effects) if
  /// fewer than `amount` units are free.
  [[nodiscard]] bool try_acquire(double amount);

  /// Release `amount` previously acquired units.
  void release(double amount);

  [[nodiscard]] double capacity() const noexcept { return capacity_; }
  [[nodiscard]] double in_use() const noexcept { return in_use_; }
  [[nodiscard]] double available() const noexcept { return capacity_ - in_use_; }
  [[nodiscard]] double utilization() const noexcept { return in_use_ / capacity_; }

  /// Time-integral of held units up to `now` (unit·seconds). Lazily
  /// advances the integral, so it is also called for that side effect.
  double held_unit_seconds(Time now) const noexcept;

 private:
  Engine& engine_;
  double capacity_;
  double in_use_ = 0.0;
  mutable double integral_ = 0.0;
  mutable Time mark_ = 0.0;
};

}  // namespace amoeba::sim
