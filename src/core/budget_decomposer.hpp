// End-to-end QoS budget decomposition over a call graph.
//
// The paper's Eq. 1-5 discriminant consumes a *per-stage* latency target,
// but a product's SLO is end-to-end: the user's query crosses every stage
// on its critical path. The decomposer splits the end-to-end target T
// into per-stage budgets
//
//   b_k = T * w_k / S_k,
//
// where w_k is the stage's latency weight (an EWMA of its observed p95,
// seeded from its profiled solo latency) and S_k is the heaviest root-to-
// leaf path sum passing through stage k. Guarantees, for any positive
// weights (proved in DESIGN.md §14 and pinned by the property suite):
//
//   * along every root-to-leaf path P:  sum_{k in P} b_k <= T,
//     with equality exactly on the critical path;
//   * b_k > 0;
//   * b_k is non-decreasing in w_k and non-increasing in every other w_j —
//     a slow downstream stage automatically tightens upstream budgets, so
//     their discriminants can trigger compensating platform switches.
//
// The naive baseline (`equal_split`) gives every stage T / max_path_stages
// regardless of how unevenly the latency actually distributes.
#pragma once

#include <vector>

#include "common/assert.hpp"
#include "workload/call_graph.hpp"

namespace amoeba::core {

class BudgetDecomposer {
 public:
  /// Floor for a stage weight (seconds): keeps budgets strictly positive
  /// even when a stage reports (near-)zero latency.
  static constexpr double kMinWeightS = 1e-4;

  /// `initial_weights[k]` seeds stage k's weight (canonical index order);
  /// typically the stage's ideal solo latency. All weights must be > 0
  /// (values below kMinWeightS are floored).
  BudgetDecomposer(workload::CallGraph graph, double e2e_target_s,
                   const std::vector<double>& initial_weights);

  /// Fold one observed per-stage p95 into the stage's weight: an EWMA,
  /// w <- 0.7 * w + 0.3 * max(p95, kMinWeightS).
  void observe(int stage, double observed_p95_s);

  /// Current per-stage budgets b_k = T * w_k / S_k (canonical order).
  [[nodiscard]] std::vector<double> budgets() const;

  [[nodiscard]] const std::vector<double>& weights() const noexcept {
    return weights_;
  }

  /// The fixed-equal-budget baseline: every stage gets
  /// T / max_path_stages, independent of where the latency actually is.
  [[nodiscard]] static std::vector<double> equal_split(
      const workload::CallGraph& graph, double e2e_target_s);

 private:
  workload::CallGraph graph_;
  double target_s_ = 0.0;
  std::vector<double> weights_;
};

}  // namespace amoeba::core
