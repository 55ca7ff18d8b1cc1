#include "core/budget_decomposer.hpp"

#include <algorithm>
#include <utility>

namespace amoeba::core {

namespace {
/// EWMA smoothing of an observed per-stage p95 into the stage weight.
constexpr double kEwmaAlpha = 0.3;
}  // namespace

BudgetDecomposer::BudgetDecomposer(workload::CallGraph graph,
                                   double e2e_target_s,
                                   const std::vector<double>& initial_weights)
    : graph_(std::move(graph)), target_s_(e2e_target_s) {
  AMOEBA_EXPECTS_VALS(e2e_target_s > 0.0, e2e_target_s);
  AMOEBA_EXPECTS_VALS(
      static_cast<int>(initial_weights.size()) == graph_.size(),
      initial_weights.size(), graph_.size());
  weights_.reserve(initial_weights.size());
  for (const double w : initial_weights) {
    AMOEBA_EXPECTS_VALS(w > 0.0, w);
    weights_.push_back(std::max(w, kMinWeightS));
  }
}

void BudgetDecomposer::observe(int stage, double observed_p95_s) {
  AMOEBA_EXPECTS_VALS(stage >= 0 && stage < graph_.size(), stage,
                      graph_.size());
  AMOEBA_EXPECTS_VALS(observed_p95_s >= 0.0, observed_p95_s);
  const auto k = static_cast<std::size_t>(stage);
  const double sample = std::max(observed_p95_s, kMinWeightS);
  weights_[k] = (1.0 - kEwmaAlpha) * weights_[k] + kEwmaAlpha * sample;
}

std::vector<double> BudgetDecomposer::budgets() const {
  const std::vector<double> sums = graph_.path_sums_through(weights_);
  std::vector<double> out(weights_.size(), 0.0);
  for (std::size_t k = 0; k < weights_.size(); ++k) {
    // S_k >= w_k > 0, so 0 < b_k <= T.
    out[k] = target_s_ * weights_[k] / sums[k];
    AMOEBA_ENSURES_VALS(out[k] > 0.0 && out[k] <= target_s_, out[k],
                        target_s_);
  }
  return out;
}

std::vector<double> BudgetDecomposer::equal_split(
    const workload::CallGraph& graph, double e2e_target_s) {
  AMOEBA_EXPECTS_VALS(e2e_target_s > 0.0, e2e_target_s);
  const double share =
      e2e_target_s / static_cast<double>(graph.max_path_stages());
  return std::vector<double>(static_cast<std::size_t>(graph.size()), share);
}

}  // namespace amoeba::core
