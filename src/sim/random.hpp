// Deterministic random-number utilities for the simulator.
//
// All stochastic behaviour in the repository flows through `Rng`, a
// xoshiro256++ generator seeded via SplitMix64. Standard-library
// distributions are avoided for the core draws because their algorithms are
// implementation-defined; the draws here are bit-reproducible across
// standard libraries.
#pragma once

#include <array>
#include <cstdint>

#include "common/assert.hpp"

namespace amoeba::sim {

/// SplitMix64 step; used for seeding and cheap hashing.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256++ PRNG. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept;

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

  /// Exponential variate with rate `lambda` (mean 1/lambda). Requires
  /// lambda > 0. Never returns exactly 0.
  [[nodiscard]] double exponential(double lambda);

  /// Standard normal variate (Marsaglia polar method).
  [[nodiscard]] double normal();

  /// Log-normal variate parameterized by the *target* mean and coefficient
  /// of variation of the resulting distribution (not of the underlying
  /// normal). Used for service-time jitter. Requires mean > 0, cv >= 0.
  [[nodiscard]] double lognormal_mean_cv(double mean, double cv);

  /// Derive an independent child generator (for share-nothing parallel
  /// sweeps). Deterministic in (this state, stream_id).
  [[nodiscard]] Rng fork(std::uint64_t stream_id) const noexcept;

 private:
  std::array<std::uint64_t, 4> s_{};
  bool have_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace amoeba::sim
