// Property suite for the end-to-end budget decomposer (DESIGN.md §14).
//
// The decomposition invariants must hold for ANY DAG and ANY positive
// weights, so they are checked the way a fuzzer would: ~20 random
// (seed, shape) combinations of layered DAGs with randomized per-stage
// content and weights, each asserting
//   * per-path budget sums never exceed the end-to-end target,
//   * the critical path consumes the target exactly,
//   * budgets stay strictly positive,
//   * renormalization is monotone (a slower stage only ever grows its own
//     budget and only ever shrinks the others').
#include "core/budget_decomposer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "sim/random.hpp"
#include "support/rng_draws.hpp"
#include "workload/reference_call_graph.hpp"

namespace amoeba::core {
namespace {

using sim::testing::uniform_index;

workload::FunctionProfile stage_profile(const std::string& name,
                                        double cpu_seconds) {
  workload::FunctionProfile p;
  p.name = name;
  p.exec = {.cpu_seconds = cpu_seconds, .io_bytes = 5.0e5,
            .net_bytes = 1.0e5};
  p.code_bytes = 1.0e6;
  p.result_bytes = 1.0e4;
  p.platform_overhead_s = 0.01;
  p.rpc_overhead_s = 0.005;
  p.memory_mb = 256.0;
  p.cpu_cv = 0.1;
  p.qos_target_s = 1.0;
  p.peak_load_qps = 10.0;
  return p;
}

/// Random layered DAG: 2-4 layers of 1-3 stages; every non-root stage has
/// at least one parent in the previous layer, every non-leaf stage at
/// least one child in the next, plus random extra edges. Deterministic in
/// the seed.
workload::CallGraph random_dag(std::uint64_t seed) {
  sim::Rng gen(seed);
  const int n_layers = 2 + static_cast<int>(uniform_index(gen, 3));
  std::vector<std::vector<int>> layers;
  workload::CallGraph::Builder b;
  int next = 0;
  for (int l = 0; l < n_layers; ++l) {
    const int width = 1 + static_cast<int>(uniform_index(gen, 3));
    std::vector<int> layer;
    for (int i = 0; i < width; ++i) {
      const std::string label = "s" + std::to_string(next++);
      const double cpu = 0.01 + 0.001 * static_cast<double>(uniform_index(gen, 100));
      layer.push_back(b.add_stage(label, stage_profile(label, cpu)));
    }
    layers.push_back(std::move(layer));
  }
  // Connectivity + random extras, deduped before declaration (the builder
  // rejects duplicate edges by contract).
  std::set<std::pair<int, int>> edges;
  for (std::size_t l = 1; l < layers.size(); ++l) {
    const auto& prev = layers[l - 1];
    const auto& cur = layers[l];
    for (const int v : cur) edges.emplace(prev[uniform_index(gen, prev.size())], v);
    for (const int u : prev) edges.emplace(u, cur[uniform_index(gen, cur.size())]);
    for (int extra = static_cast<int>(uniform_index(gen, 3)); extra > 0; --extra) {
      edges.emplace(prev[uniform_index(gen, prev.size())], cur[uniform_index(gen, cur.size())]);
    }
  }
  for (const auto& [from, to] : edges) b.add_edge(from, to);
  return b.build();
}

std::vector<double> random_weights(const workload::CallGraph& g,
                                   std::uint64_t seed) {
  sim::Rng gen(seed ^ 0xabcdefULL);
  std::vector<double> w(static_cast<std::size_t>(g.size()));
  for (auto& wi : w) {
    wi = 0.01 + 0.001 * static_cast<double>(uniform_index(gen, 500));
  }
  return w;
}

constexpr double kTargetS = 2.0;

void check_decomposition_invariants(const workload::CallGraph& g,
                                    const std::vector<double>& budgets,
                                    double target_s) {
  ASSERT_EQ(budgets.size(), static_cast<std::size_t>(g.size()));
  for (const double b : budgets) {
    EXPECT_GT(b, 0.0);
    EXPECT_LE(b, target_s * (1.0 + 1e-12));
  }
  // Per-path sums <= T; the heaviest path consumes T exactly.
  double heaviest = 0.0;
  for (const auto& path : workload::testing::paths(g)) {
    double s = 0.0;
    for (const int v : path) s += budgets[static_cast<std::size_t>(v)];
    EXPECT_LE(s, target_s * (1.0 + 1e-9));
    heaviest = std::max(heaviest, s);
  }
  EXPECT_NEAR(heaviest, target_s, target_s * 1e-9);
}

TEST(BudgetDecomposerProperties, HoldAcrossRandomSeedsAndShapes) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const workload::CallGraph g = random_dag(seed);
    const std::vector<double> w = random_weights(g, seed);
    BudgetDecomposer d(g, kTargetS, w);
    check_decomposition_invariants(g, d.budgets(), kTargetS);
  }
}

TEST(BudgetDecomposerProperties, RenormalizationIsMonotone) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const workload::CallGraph g = random_dag(seed);
    const std::vector<double> w = random_weights(g, seed);
    BudgetDecomposer d(g, kTargetS, w);
    const std::vector<double> before = d.budgets();

    // Stage `slow` reports a much larger p95: its own budget must not
    // shrink, every other stage's must not grow, and the invariants must
    // survive the renormalization.
    const int slow = static_cast<int>(seed) % g.size();
    const auto si = static_cast<std::size_t>(slow);
    d.observe(slow, 10.0 * w[si]);
    const std::vector<double> after = d.budgets();
    EXPECT_GE(after[si], before[si] * (1.0 - 1e-12));
    for (int k = 0; k < g.size(); ++k) {
      if (k == slow) continue;
      EXPECT_LE(after[static_cast<std::size_t>(k)],
                before[static_cast<std::size_t>(k)] * (1.0 + 1e-12))
          << "stage " << k;
    }
    check_decomposition_invariants(g, after, kTargetS);
  }
}

TEST(BudgetDecomposer, ObserveAppliesTheEwma) {
  workload::CallGraph::Builder b;
  const int a = b.add_stage("a", stage_profile("a", 0.02));
  const int c = b.add_stage("c", stage_profile("c", 0.03));
  b.add_edge(a, c);
  const workload::CallGraph g = b.build();

  // The weight moves 0.3 of the way to each observation.
  BudgetDecomposer d(g, 1.0, {0.2, 0.2});
  d.observe(0, 0.6);
  EXPECT_NEAR(d.weights()[0], 0.7 * 0.2 + 0.3 * 0.6, 1e-12);
  EXPECT_DOUBLE_EQ(d.weights()[1], 0.2);

  // Observations are floored so a (near-)zero p95 cannot zero the weight.
  d.observe(1, 0.0);
  EXPECT_NEAR(d.weights()[1], 0.7 * 0.2 + 0.3 * BudgetDecomposer::kMinWeightS,
              1e-12);
  check_decomposition_invariants(g, d.budgets(), 1.0);
}

TEST(BudgetDecomposer, ChainSplitsProportionallyToWeights) {
  workload::CallGraph::Builder b;
  const int a = b.add_stage("a", stage_profile("a", 0.02));
  const int c = b.add_stage("c", stage_profile("c", 0.03));
  b.add_edge(a, c);
  const workload::CallGraph g = b.build();

  // On a chain S_k is the same total for every stage, so budgets are the
  // exact proportional split of T.
  BudgetDecomposer d(g, 1.0, {0.3, 0.1});
  const auto budgets = d.budgets();
  EXPECT_NEAR(budgets[0], 0.75, 1e-12);
  EXPECT_NEAR(budgets[1], 0.25, 1e-12);
}

TEST(BudgetDecomposer, EqualSplitIsTheNaiveBaseline) {
  const workload::CallGraph g = random_dag(7);
  const auto budgets = BudgetDecomposer::equal_split(g, 1.5);
  ASSERT_EQ(budgets.size(), static_cast<std::size_t>(g.size()));
  for (const double b : budgets) {
    EXPECT_DOUBLE_EQ(b, 1.5 / g.max_path_stages());
  }
}

TEST(BudgetDecomposer, RejectsInvalidInputs) {
  const workload::CallGraph g = random_dag(3);
  const std::vector<double> w(static_cast<std::size_t>(g.size()), 0.1);
  EXPECT_THROW(BudgetDecomposer(g, 0.0, w), ContractError);
  EXPECT_THROW(BudgetDecomposer(g, -1.0, w), ContractError);
  EXPECT_THROW(BudgetDecomposer(g, 1.0, {0.1}), ContractError);
  {
    std::vector<double> bad = w;
    bad[0] = 0.0;
    EXPECT_THROW(BudgetDecomposer(g, 1.0, bad), ContractError);
  }

  BudgetDecomposer d(g, 1.0, w);
  EXPECT_THROW(d.observe(-1, 0.1), ContractError);
  EXPECT_THROW(d.observe(g.size(), 0.1), ContractError);
  EXPECT_THROW(d.observe(0, -0.1), ContractError);
}

}  // namespace
}  // namespace amoeba::core
