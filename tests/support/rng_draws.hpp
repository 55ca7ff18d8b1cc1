// Test-data draws over sim::Rng.
//
// The simulator draws uniforms, exponentials and log-normals; only tests
// need shifted normals and bounded integer indices, so those live here,
// built on Rng's public normal() and raw 64-bit output. Both give the very
// values the Rng members of the same names did.
#pragma once

#include <cstdint>

#include "common/assert.hpp"
#include "sim/random.hpp"

namespace amoeba::sim::testing {

/// Normal variate with the given mean and standard deviation (>= 0).
[[nodiscard]] inline double normal(Rng& rng, double mean, double stddev) {
  AMOEBA_EXPECTS(stddev >= 0.0);
  return mean + stddev * rng.normal();
}

/// Uniform integer in [0, n) by Lemire's multiply-shift rejection method
/// (unbiased). Requires n > 0.
[[nodiscard]] inline std::uint64_t uniform_index(Rng& rng, std::uint64_t n) {
  // GCC/Clang extension; __extension__ keeps -Wpedantic quiet about it.
  __extension__ typedef unsigned __int128 u128;
  AMOEBA_EXPECTS(n > 0);
  std::uint64_t x = rng();
  u128 m = static_cast<u128>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      x = rng();
      m = static_cast<u128>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

}  // namespace amoeba::sim::testing
