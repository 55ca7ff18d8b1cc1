// Synthetic diurnal load trace.
//
// The paper drives every benchmark with the Didi ride-hailing trace, which
// is not redistributable. §II-A notes "the actual fluctuate pattern does
// not affect the analysis"; what matters is the diurnal alternation between
// a peak and a trough at 20–30% of peak (paper §I). `DiurnalTrace` produces
// a two-peak (morning/evening rush) day, optionally with multiplicative
// noise and bursts, compressed to an arbitrary simulated period so full-day
// experiments finish in seconds.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/assert.hpp"
#include "sim/random.hpp"

namespace amoeba::workload {

struct DiurnalTraceConfig {
  double period_s = 3600.0;      ///< length of one simulated "day"
  double peak_qps = 100.0;       ///< maximum arrival rate
  double trough_fraction = 0.25; ///< trough rate / peak rate (paper: <30%)
  double morning_center = 0.35;  ///< fraction of day: morning rush position
  double evening_center = 0.78;  ///< fraction of day: evening rush position
  double peak_width = 0.07;      ///< rush width as a fraction of the day
  double evening_relative = 0.9; ///< evening rush height / morning rush
  double noise_cv = 0.0;         ///< multiplicative lognormal noise (0 = off)
  double noise_interval_s = 30.0;///< how often the noise factor resamples
  double phase = 0.0;            ///< phase shift in fractions of a day

  void validate() const;
};

/// A bracket lo <= rate <= hi on an arrival rate, in queries/second.
struct RateBounds {
  double lo = 0.0;
  double hi = 0.0;
};

class DiurnalTrace {
 public:
  explicit DiurnalTrace(DiurnalTraceConfig cfg, std::uint64_t noise_seed = 1);

  /// Deterministic (noise-free) rate at absolute time `t` (wraps per day).
  [[nodiscard]] double base_rate(double t) const;

  /// Rate including the piecewise-constant noise factor. The factor of the
  /// last noise interval queried is memoized, so rate() is not safe to call
  /// concurrently on one trace; give each thread its own copy.
  [[nodiscard]] double rate(double t) const;

  /// A guaranteed upper bound on rate() over all t (for Poisson thinning).
  [[nodiscard]] double max_rate() const;

  /// A cheap envelope of rate(t): lo <= rate(t) <= hi, bit for bit, and
  /// hi <= max_rate(). It reads the day-fraction bin of t from a table and
  /// scales it by the noise factor; it shares rate()'s noise memo.
  [[nodiscard]] RateBounds rate_bounds(double t) const;

  [[nodiscard]] const DiurnalTraceConfig& config() const noexcept {
    return cfg_;
  }

 private:
  /// Envelope table size: 256 bins of {lo, hi} are 4 KB per trace. A
  /// power of two, so a day fraction's bin index is computed exactly.
  static constexpr std::size_t kEnvelopeBins = 256;

  /// Fraction of the day at time t, in [0, 1).
  [[nodiscard]] double day_fraction(double t) const;
  /// The noise-free rate when the day fraction lies `d_morning` and
  /// `d_evening` (wrapped distances) from the two rush centres.
  [[nodiscard]] double rate_at(double d_morning, double d_evening) const;
  [[nodiscard]] double noise_factor(double t) const;

  DiurnalTraceConfig cfg_;
  std::uint64_t noise_seed_;
  double noise_cap_;
  /// Noise-free rate bounds per day-fraction bin (see rate_bounds).
  std::array<RateBounds, kEnvelopeBins> envelope_{};
  /// One-entry memo of noise_factor: the factor is a pure function of the
  /// interval index, and a load generator queries each interval many times
  /// in a row.
  mutable bool memo_valid_ = false;
  mutable std::uint64_t memo_interval_ = 0;
  mutable double memo_factor_ = 1.0;
};

}  // namespace amoeba::workload
