// The shared node — one driver behind every run of managed services that
// share the paper's §VII-A node.
//
// A run is a list of *flows*. A flow is a workload::CallGraph whose roots
// receive one diurnal Poisson stream, judged against one end-to-end QoS
// target. A cluster tenant is a one-stage flow (run_cluster, cluster.hpp);
// a product DAG is one flow (run_callgraph, callgraph.hpp). The driver,
// run_shared_node (node_driver.hpp, internal to exp/), does everything
// those two adapters have in common. The day itself (the node, its diurnal
// streams and runtimes, the load start and the end of the day) is SimNode's,
// which runs run_managed's day too. What the driver adds:
//   - the meter reserve and the shared-pool container budget split;
//   - one AmoebaRuntime per stage: pins, switch margins, budgets and their
//     renormalization;
//   - the AND-join query flow (a stage fires once all its parents finished
//     the query) and the conservation ledger;
//   - per-stage and node-wide result collection.
//
// Determinism: runtime k (stages numbered across flows, flow-major) draws
// rng fork 1000 + k, flow f's generator fork 2000 + f and its trace noise
// seed ^ (0x51 + f). Runtimes start in stage order, then the renorm tick is
// scheduled, then the generators start at the same instant in flow order.
//
// This header holds the bases the adapters' option and result types share.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/scenario.hpp"

namespace amoeba::exp {

/// Options every shared-node run takes: the base of ClusterRunOptions and
/// CallGraphRunOptions.
struct SharedNodeOptions : DayOptions {
  /// Node-wide container budget (Table II: 32 GB pool / 256 MB = 128).
  int node_container_budget = 128;
  /// Containers withheld from the stage split for the three contention
  /// meters (divided equally; at least 1 per meter). Meters are registered
  /// with this as their per-function n_max before any runtime starts.
  int meter_reserve_containers = 15;
};

/// How a flow's end-to-end QoS target decomposes into per-stage budgets.
/// Under either mode a one-stage flow's budget is its whole target.
enum class BudgetMode : std::uint8_t {
  kNaiveEqual,     ///< fixed T / max_path_stages per stage
  kEndToEndAware,  ///< critical-path-weighted, renormalized from p95s
};

[[nodiscard]] const char* to_string(BudgetMode m) noexcept;

/// Per-stage outcome fields every shared-node run reports.
struct StageResultBase {
  std::string name;            ///< service name on the node
  stats::SampleSet latencies;  ///< stage latency, post-warmup queries
  core::ServiceUsage usage;    ///< rented IaaS + consumed serverless
  std::uint64_t switch_aborts = 0;
  std::uint64_t switch_retries = 0;
  /// Prewarm containers denied by the shared-pool arbitration.
  std::uint64_t prewarm_denied = 0;
  int n_max_asked = 0;    ///< solo ask (the just-enough VM's cores)
  int n_max_granted = 0;  ///< after the budget split

  [[nodiscard]] double p95() const { return latencies.quantile(0.95); }
};

/// Node-wide outcome fields every shared-node run reports.
struct SharedNodeResult : NodeRunResult {
  /// The contention meters' own usage (probing is honest overhead).
  core::ServiceUsage meter_usage;
  /// Σ over every function on the node (stages + meters) of the pool's
  /// container-memory reservation integral (MB·s). Conservation: can never
  /// exceed pool capacity × duration.
  double pool_memory_mb_seconds = 0.0;
  /// Pool-wide high-water marks and counters.
  int peak_pool_containers = 0;
  double peak_pool_memory_mb = 0.0;
  std::uint64_t pool_evictions = 0;
  std::uint64_t prewarm_denied_total = 0;

 protected:
  /// Rented/consumed core-hours and GB-hours of `stages` plus the meters.
  [[nodiscard]] double core_hours_with(const core::ServiceUsage& stages) const;
  [[nodiscard]] double memory_gb_hours_with(
      const core::ServiceUsage& stages) const;
};

/// First result named `name` (nullptr when absent).
template <typename Result>
[[nodiscard]] const Result* find_named(const std::vector<Result>& results,
                                       const std::string& name) {
  for (const auto& r : results) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

}  // namespace amoeba::exp
