// Offline profiling harness — paper §IV-B step 1.
//
// Produces, by running short simulations against the same platform physics
// the experiments use:
//   * MeterCalibration — each meter's latency-vs-pressure curve (Fig. 8);
//   * ServiceArtifacts — per-microservice solo latency L0, the three
//     latency surfaces L_i(P, V_u) (Fig. 9), and the service's pressure
//     footprint per unit load (measured through the meters, not read from
//     ground truth).
//
// Everything here only observes latencies — the same information a real
// operator could collect on a staging cluster.
#pragma once

#include <vector>

#include "core/profile_data.hpp"
#include "exp/scenario.hpp"
#include "workload/meters.hpp"

namespace amoeba::exp {

struct ProfilingConfig {
  /// Pressure grid for meter curves and surface rows (fraction of the
  /// resource's capacity demanded).
  std::vector<double> pressure_grid = {0.02, 0.2, 0.4, 0.6, 0.75, 0.9};
  /// Load grid for surface columns, as fractions of the service's peak.
  std::vector<double> load_fractions = {0.05, 0.2, 0.4, 0.6, 0.8, 1.0};
  double cell_duration_s = 30.0;  ///< simulated seconds per grid cell
  double warmup_s = 5.0;
  double solo_probe_qps = 2.0;    ///< load used to measure L0
  unsigned threads = 0;           ///< 0 = hardware concurrency

  void validate() const;
};

/// Fig. 8: run each meter alone at loads chosen to hit the pressure grid,
/// recording its mean service latency.
[[nodiscard]] core::MeterCalibration profile_meters(
    const ClusterConfig& cluster, const ProfilingConfig& cfg);

/// Fig. 9 + L0 + footprint for one microservice.
[[nodiscard]] core::ServiceArtifacts profile_service(
    const workload::FunctionProfile& profile, const ClusterConfig& cluster,
    const core::MeterCalibration& calibration, const ProfilingConfig& cfg);

/// Convenience: the stressor load (QPS) that puts `pressure` (fraction of
/// capacity) on the resource `kind` stresses.
[[nodiscard]] double stressor_load_for_pressure(workload::StressKind kind,
                                                double pressure,
                                                const ClusterConfig& cluster);

/// Single profiling cell: co-locate `subject` at `subject_qps` with an
/// optional stressor, return the subject's r-ile *service* latency (queue
/// and cold start excluded). Exposed for tests and the Fig. 9 bench.
struct CellResult {
  double tail_latency_s = 0.0;
  double mean_latency_s = 0.0;
  std::uint64_t samples = 0;
  std::uint64_t cold_starts = 0;  ///< containers the cell booted
  /// Subject queries submitted but not completed after the drain: queries
  /// left queued with no event to re-pump them (see ROADMAP).
  std::uint64_t stranded = 0;
};

[[nodiscard]] CellResult run_profile_cell(
    const workload::FunctionProfile& subject, double subject_qps,
    const workload::FunctionProfile* stressor, double stressor_qps,
    const ClusterConfig& cluster, const ProfilingConfig& cfg,
    std::uint64_t seed);

}  // namespace amoeba::exp
