// Artifacts produced by offline profiling (paper §IV-B step 1) and
// consumed by the monitor and the deployment controller at runtime.
#pragma once

#include <array>
#include <optional>

#include "core/latency_surface.hpp"
#include "core/meter_curve.hpp"
#include "core/weight_estimator.hpp"  // kNumResources

namespace amoeba::core {

/// Index convention for the three contended-resource dimensions, matching
/// workload::MeterKind's integer values.
inline constexpr std::size_t kCpuDim = 0;
inline constexpr std::size_t kIoDim = 1;
inline constexpr std::size_t kNetDim = 2;

/// The QoS percentile r (paper: 95%-ile): the statistic of the Fig. 9
/// latency surfaces and the r of the Eq. 5 discriminant. One constant, so
/// the estimator's features and its targets share tail semantics.
inline constexpr double kQosPercentile = 0.95;

/// Platform-level calibration: one curve per contention meter (Fig. 8).
struct MeterCalibration {
  std::array<std::optional<MeterCurve>, kNumResources> curves;

  [[nodiscard]] bool complete() const noexcept {
    for (const auto& c : curves) {
      if (!c.has_value()) return false;
    }
    return true;
  }
};

/// Per-microservice profiling results.
struct ServiceArtifacts {
  /// Solo (uncontended, warm-container) service latency L0.
  double solo_latency_s = 0.0;
  /// Fixed execution overhead α in Eq. 6 (0: the surfaces already include
  /// the platform overheads; the PCR intercept absorbs any residue).
  double alpha_s = 0.0;
  /// L_i(P_i, V_u): latency surfaces against each resource's pressure
  /// (Fig. 9), in kCpuDim/kIoDim/kNetDim order.
  std::array<std::optional<LatencySurface>, kNumResources> surfaces;
  /// Pressure the service itself adds per query/second of load on each
  /// resource (used to subtract self-pressure and for the co-tenant
  /// admission check).
  std::array<double, kNumResources> pressure_per_qps{};

  [[nodiscard]] bool complete() const noexcept {
    if (solo_latency_s <= 0.0) return false;
    for (const auto& s : surfaces) {
      if (!s.has_value()) return false;
    }
    return true;
  }
};

}  // namespace amoeba::core
