// Per-query records shared by both execution platforms.
//
// `LatencyBreakdown` mirrors the paper's Fig. 4 decomposition of an
// end-to-end serverless query: queueing, cold start, platform processing
// overhead, code loading, function execution, and result posting. IaaS
// queries use the same record with the serverless-only fields at zero.
#pragma once

#include <cstdint>
#include <functional>

namespace amoeba::workload {

struct LatencyBreakdown {
  double queue_s = 0.0;       ///< waiting for a container / worker
  double cold_start_s = 0.0;  ///< container boot attributed to this query
  double overhead_s = 0.0;    ///< auth + scheduling ("processing" in Fig. 4)
  double code_load_s = 0.0;   ///< code/data fetch
  double exec_s = 0.0;        ///< function body (cpu + io + net)
  double post_s = 0.0;        ///< result posting

  [[nodiscard]] double total() const noexcept {
    return queue_s + cold_start_s + overhead_s + code_load_s + exec_s + post_s;
  }

  /// Service time: the latency without the queueing and cold-start wait,
  /// what the latency surfaces and the contention meters are fitted to.
  [[nodiscard]] double service_s() const noexcept {
    return total() - queue_s - cold_start_s;
  }
};

struct QueryRecord {
  std::uint64_t id = 0;
  double arrival = 0.0;
  double completion = 0.0;
  LatencyBreakdown breakdown;
  bool cold = false;           ///< suffered a cold start
  double cpu_work_done = 0.0;  ///< sampled core-seconds actually consumed

  [[nodiscard]] double latency() const noexcept { return completion - arrival; }
};

/// Completion observer: invoked exactly once per query.
using QueryCompletionFn = std::function<void(const QueryRecord&)>;

}  // namespace amoeba::workload
