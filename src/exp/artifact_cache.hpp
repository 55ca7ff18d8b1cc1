// Text-file cache for profiling artifacts.
//
// Profiling (meter curves, latency surfaces) is deterministic but takes
// simulated-minutes of CPU; every figure bench needs the same artifacts.
// The cache persists them as a human-readable text file keyed by a caller
// tag, so `for b in build/bench/*; do $b; done` profiles once, not eight
// times. Loading validates the format version and tag; any mismatch just
// reports a miss and the caller re-profiles.
#pragma once

#include <optional>
#include <string>

#include "core/profile_data.hpp"
#include "exp/profiling.hpp"

namespace amoeba::exp {

/// The cache tag of one profiling result: every input profiling reads, at
/// full precision (obs::json_number). That is each serverless platform
/// field, the cluster seed, every ProfilingConfig value except `threads`
/// (results do not depend on the worker count) and every field of the
/// three meter profiles. `service` = nullptr tags the meter calibration;
/// otherwise the tag adds every field of the three stressors and of
/// `service`. Code changes to the platform physics are not covered.
[[nodiscard]] std::string profiling_cache_tag(
    const ClusterConfig& cluster, const ProfilingConfig& cfg,
    const workload::FunctionProfile* service);

/// Persist / restore the platform meter calibration.
void save_calibration(const std::string& path, const std::string& tag,
                      const core::MeterCalibration& calibration);
[[nodiscard]] std::optional<core::MeterCalibration> load_calibration(
    const std::string& path, const std::string& tag);

/// Persist / restore one service's artifacts.
void save_artifacts(const std::string& path, const std::string& tag,
                    const core::ServiceArtifacts& artifacts);
[[nodiscard]] std::optional<core::ServiceArtifacts> load_artifacts(
    const std::string& path, const std::string& tag);

/// Default cache directory (created on demand): ./amoeba_profile_cache
[[nodiscard]] std::string default_cache_dir();

}  // namespace amoeba::exp
