// Per-service container-capacity estimation — paper Eq. 6 and §VI-A.
//
// Eq. 6 turns the three per-resource latency predictions {L_1, L_2, L_3}
// (from the latency surfaces at the current pressures and load) into a
// per-container processing capacity:
//
//     μ_n = 1 / ( Σ_i w_i · L_i + α )
//
// The weights w start pessimistic and are calibrated online by principal-
// component regression over heartbeat samples (features = surface
// predictions, target = observed service latency of queries mirrored to
// the serverless platform). The estimator streams the sliding window's
// moments (linalg::WindowMoments) as heartbeats arrive, so a refit costs
// O(d²) whatever the window size. The window is a ring, and every refit
// writes into the same model and fit scratch, so once the window is full
// observing and refitting allocate nothing. Disabling the calibration gives
// the paper's Amoeba-NoM ablation: degradations on every resource are
// assumed to accumulate, which over-predicts latency and postpones
// profitable switches (paper Fig. 14/15).
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <vector>

#include "common/assert.hpp"
#include "linalg/pca.hpp"

namespace amoeba::core {

inline constexpr std::size_t kNumResources = 3;  // cpu/mem, disk IO, network

using Features = std::array<double, kNumResources>;

struct WeightEstimatorConfig {
  bool enable_pca = true;         ///< false = Amoeba-NoM accumulation mode
  std::size_t min_samples = 24;   ///< PCR needs this many heartbeats
  std::size_t max_samples = 512;  ///< sliding window of heartbeats
  double min_explained = 0.95;    ///< PCA variance retention (paper: "most")
  double ridge = 1e-8;  ///< >= 0
  /// Clamp surface-predicted latencies to this value (seconds) before they
  /// enter the regression. Saturated profiling cells carry sentinel values
  /// orders of magnitude above the operating regime; unclamped they swamp
  /// the linear fit, and any latency beyond the cap rejects the deployment
  /// regardless. 0 = no clamp; must be finite and >= 0. The controller
  /// defaults this to 4x the service's QoS target.
  double feature_cap_s = 0.0;
  /// Refit at most every `refit_interval` new samples. A refit is O(d²)
  /// from the streamed moments; the interval only bounds how often the
  /// weights move.
  std::size_t refit_interval = 8;
};

class WeightEstimator {
 public:
  /// `solo_latency` is L0, the uncontended service latency; `alpha` the
  /// fixed execution overhead in Eq. 6.
  WeightEstimator(WeightEstimatorConfig cfg, double solo_latency,
                  double alpha);

  /// Record one heartbeat observation: the surface-predicted latencies and
  /// the actually observed service latency (both seconds).
  void observe(const Features& predicted, double observed_latency);

  /// Predicted service time Σ w_i L_i + α (or the NoM accumulation when
  /// PCA is disabled or not yet primed).
  [[nodiscard]] double predict_service_time(const Features& predicted) const;

  /// μ_n = 1 / predict_service_time (Eq. 6).
  [[nodiscard]] double mu(const Features& predicted) const;

  /// Current weights; empty optional until a PCR fit has happened.
  [[nodiscard]] std::optional<std::array<double, kNumResources>> weights()
      const;

  [[nodiscard]] bool calibrated() const noexcept { return refits_ > 0; }
  /// Principal components the current fit keeps; 0 until calibrated.
  [[nodiscard]] std::size_t retained_components() const noexcept {
    return calibrated() ? model_.pca.retained : 0;
  }
  [[nodiscard]] std::size_t samples() const noexcept { return window_.size(); }
  [[nodiscard]] std::size_t refits() const noexcept { return refits_; }

 private:
  void maybe_refit();
  [[nodiscard]] double accumulate_prediction(const Features& f) const;
  [[nodiscard]] Features clamped(const Features& f) const;

  WeightEstimatorConfig cfg_;
  double l0_;
  double alpha_;
  struct Sample {
    Features x;
    double y;
  };
  /// The newest max_samples heartbeats: in arrival order until full, then
  /// a ring whose oldest sample is at `oldest_`.
  std::vector<Sample> window_;
  std::size_t oldest_ = 0;
  linalg::WindowMoments moments_{kNumResources};  ///< of window_
  linalg::PcrModel model_;  ///< the current fit, once calibrated()
  linalg::FitScratch scratch_;
  std::size_t since_refit_ = 0;
  std::size_t since_resum_ = 0;
  std::size_t refits_ = 0;
};

}  // namespace amoeba::core
