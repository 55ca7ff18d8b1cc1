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

  [[nodiscard]] const DiurnalTraceConfig& config() const noexcept {
    return cfg_;
  }

 private:
  [[nodiscard]] double noise_factor(double t) const;

  DiurnalTraceConfig cfg_;
  std::uint64_t noise_seed_;
  double noise_cap_;
  /// One-entry memo of noise_factor: the factor is a pure function of the
  /// interval index, and a load generator queries each interval many times
  /// in a row.
  mutable bool memo_valid_ = false;
  mutable std::uint64_t memo_interval_ = 0;
  mutable double memo_factor_ = 1.0;
};

}  // namespace amoeba::workload
