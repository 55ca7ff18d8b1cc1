// CallGraph canonicalization: the built object must depend only on content
// (profiles, pins, structure) — never on labels or declaration order — and
// its canonical order must be topological. These are the preconditions for
// the metamorphic determinism tests over whole call-graph simulations.
#include "workload/call_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "workload/reference_call_graph.hpp"

namespace amoeba::workload {
namespace {

FunctionProfile stage_profile(const std::string& name, double cpu_seconds) {
  FunctionProfile p;
  p.name = name;
  p.exec = {.cpu_seconds = cpu_seconds, .io_bytes = 1.0e6, .net_bytes = 1.0e5};
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

/// front -> {mid_a, mid_b} -> back, with distinct per-stage content.
CallGraph diamond(const std::vector<std::string>& labels,
                  const std::vector<int>& declaration_order) {
  // Content of the four conceptual stages, indexed 0..3.
  const std::vector<FunctionProfile> profiles = {
      stage_profile("front", 0.02), stage_profile("mid_a", 0.05),
      stage_profile("mid_b", 0.08), stage_profile("back", 0.03)};
  const std::vector<StagePin> pins = {
      StagePin::kManaged, StagePin::kManaged, StagePin::kIaasOnly,
      StagePin::kServerlessOnly};

  CallGraph::Builder b;
  std::vector<int> handle(4, -1);
  for (const int conceptual : declaration_order) {
    handle[static_cast<std::size_t>(conceptual)] =
        b.add_stage(labels[static_cast<std::size_t>(conceptual)],
                    profiles[static_cast<std::size_t>(conceptual)],
                    pins[static_cast<std::size_t>(conceptual)]);
  }
  b.add_edge(handle[0], handle[1]);
  b.add_edge(handle[0], handle[2]);
  b.add_edge(handle[1], handle[3]);
  b.add_edge(handle[2], handle[3]);
  return b.build();
}

CallGraph reference_diamond() {
  return diamond({"front", "mid_a", "mid_b", "back"}, {0, 1, 2, 3});
}

TEST(CallGraphBuilder, RejectsInvalidDeclarations) {
  EXPECT_THROW((void)CallGraph::Builder{}.build(), ContractError);

  CallGraph::Builder dup;
  dup.add_stage("a", stage_profile("a", 0.01));
  EXPECT_THROW(dup.add_stage("a", stage_profile("b", 0.01)), ContractError);
  EXPECT_THROW(dup.add_stage("", stage_profile("b", 0.01)), ContractError);

  CallGraph::Builder edges;
  const int a = edges.add_stage("a", stage_profile("a", 0.01));
  const int b = edges.add_stage("b", stage_profile("b", 0.01));
  EXPECT_THROW(edges.add_edge(a, a), ContractError);
  EXPECT_THROW(edges.add_edge(a, 2), ContractError);
  EXPECT_THROW(edges.add_edge(-1, b), ContractError);
  edges.add_edge(a, b);
  EXPECT_THROW(edges.add_edge(a, b), ContractError);
}

TEST(CallGraphBuilder, RejectsCycles) {
  CallGraph::Builder b;
  const int x = b.add_stage("x", stage_profile("x", 0.01));
  const int y = b.add_stage("y", stage_profile("y", 0.01));
  const int z = b.add_stage("z", stage_profile("z", 0.01));
  b.add_edge(x, y);
  b.add_edge(y, z);
  b.add_edge(z, x);
  EXPECT_THROW((void)b.build(), ContractError);
}

TEST(CallGraph, CanonicalOrderIsTopological) {
  const CallGraph g = reference_diamond();
  ASSERT_EQ(g.size(), 4);
  for (int k = 0; k < g.size(); ++k) {
    for (const int p : g.parents(k)) {
      EXPECT_LT(p, k) << "parent after child in canonical order";
    }
    for (const int c : g.children(k)) {
      EXPECT_TRUE(std::count(g.parents(c).begin(), g.parents(c).end(), k))
          << "asymmetric adjacency";
    }
  }
  EXPECT_EQ(g.roots(), std::vector<int>{0});
  EXPECT_EQ(g.leaves(), std::vector<int>{3});
  EXPECT_EQ(g.max_path_stages(), 3);
}

TEST(CallGraph, ServiceNamesDeriveFromCanonicalIndex) {
  const CallGraph g = reference_diamond();
  for (int k = 0; k < g.size(); ++k) {
    EXPECT_EQ(g.service_name(k),
              g.stage(k).profile.name + "@s" + std::to_string(k));
  }
  // Every declared label survives canonicalization, once.
  std::vector<std::string> labels;
  for (int k = 0; k < g.size(); ++k) labels.push_back(g.stage(k).label);
  std::sort(labels.begin(), labels.end());
  EXPECT_EQ(labels,
            (std::vector<std::string>{"back", "front", "mid_a", "mid_b"}));
}

TEST(CallGraphMetamorphic, RelabelingLeavesTheBuiltObjectUnchanged) {
  const CallGraph ref = reference_diamond();
  const CallGraph relabeled =
      diamond({"zz_root", "m1", "m2", "sink"}, {0, 1, 2, 3});

  EXPECT_EQ(relabeled.structure_hash(), ref.structure_hash());
  ASSERT_EQ(relabeled.size(), ref.size());
  for (int k = 0; k < ref.size(); ++k) {
    EXPECT_EQ(relabeled.service_name(k), ref.service_name(k));
    EXPECT_EQ(relabeled.parents(k), ref.parents(k));
    EXPECT_EQ(relabeled.children(k), ref.children(k));
    EXPECT_EQ(relabeled.stage(k).profile.name, ref.stage(k).profile.name);
    EXPECT_EQ(relabeled.stage(k).pin, ref.stage(k).pin);
  }
}

TEST(CallGraphMetamorphic, SiblingDeclarationOrderIsIrrelevant) {
  const CallGraph ref = reference_diamond();
  const std::vector<std::vector<int>> orders = {
      {0, 2, 1, 3}, {3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}};
  for (const auto& order : orders) {
    const CallGraph g = diamond({"front", "mid_a", "mid_b", "back"}, order);
    EXPECT_EQ(g.structure_hash(), ref.structure_hash());
    for (int k = 0; k < ref.size(); ++k) {
      EXPECT_EQ(g.service_name(k), ref.service_name(k));
      EXPECT_EQ(g.children(k), ref.children(k));
    }
  }
}

TEST(CallGraph, DistinctContentDistinctHash) {
  const CallGraph ref = reference_diamond();
  // Same shape, one stage's cpu demand changed: different content hash.
  const std::vector<FunctionProfile> profiles = {
      stage_profile("front", 0.02), stage_profile("mid_a", 0.05),
      stage_profile("mid_b", 0.09), stage_profile("back", 0.03)};
  CallGraph::Builder b;
  std::vector<int> h;
  h.reserve(profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    h.push_back(b.add_stage("s" + std::to_string(i), profiles[i]));
  }
  b.add_edge(h[0], h[1]);
  b.add_edge(h[0], h[2]);
  b.add_edge(h[1], h[3]);
  b.add_edge(h[2], h[3]);
  EXPECT_NE(b.build().structure_hash(), ref.structure_hash());

  // Same stages, one edge fewer: different structure hash.
  CallGraph::Builder b2;
  std::vector<int> h2;
  for (std::size_t i = 0; i < 4; ++i) {
    h2.push_back(b2.add_stage("s" + std::to_string(i),
                              stage_profile("p" + std::to_string(i), 0.02)));
  }
  CallGraph::Builder b3 = b2;
  b2.add_edge(h2[0], h2[1]);
  b2.add_edge(h2[1], h2[2]);
  b2.add_edge(h2[2], h2[3]);
  b3.add_edge(h2[0], h2[1]);
  b3.add_edge(h2[1], h2[2]);
  EXPECT_NE(b2.build().structure_hash(), b3.build().structure_hash());
}

TEST(CallGraph, PathsEnumerateEveryRootToLeafChain) {
  const CallGraph g = reference_diamond();
  const auto paths = testing::paths(g);
  ASSERT_EQ(paths.size(), 2u);
  for (const auto& p : paths) {
    ASSERT_EQ(p.size(), 3u);
    EXPECT_EQ(p.front(), 0);
    EXPECT_EQ(p.back(), 3);
  }
  EXPECT_NE(paths[0][1], paths[1][1]);  // the two middle stages
}

TEST(CallGraph, PathSumsMatchBruteForceEnumeration) {
  const CallGraph g = reference_diamond();
  const std::vector<double> w = {0.1, 0.25, 0.4, 0.15};
  const auto sums = g.path_sums_through(w);
  ASSERT_EQ(sums.size(), 4u);

  // Brute force: S_k = max over enumerated paths containing k.
  const auto paths = testing::paths(g);
  for (int k = 0; k < g.size(); ++k) {
    double best = 0.0;
    for (const auto& p : paths) {
      if (!std::count(p.begin(), p.end(), k)) continue;
      double s = 0.0;
      for (const int v : p) s += w[static_cast<std::size_t>(v)];
      best = std::max(best, s);
    }
    EXPECT_DOUBLE_EQ(sums[static_cast<std::size_t>(k)], best) << "stage " << k;
  }
  double heaviest = 0.0;
  for (const auto& p : paths) {
    double s = 0.0;
    for (const int v : p) s += w[static_cast<std::size_t>(v)];
    heaviest = std::max(heaviest, s);
  }
  EXPECT_DOUBLE_EQ(*std::max_element(sums.begin(), sums.end()), heaviest);
  EXPECT_THROW((void)g.path_sums_through({0.1, 0.2}), ContractError);
  EXPECT_THROW((void)g.path_sums_through({0.1, 0.2, 0.0, 0.1}),
               ContractError);
}

TEST(CallGraph, SingleStageAndChainShapes) {
  CallGraph::Builder solo;
  solo.add_stage("only", stage_profile("only", 0.02));
  const CallGraph g1 = solo.build();
  EXPECT_EQ(g1.size(), 1);
  EXPECT_EQ(g1.max_path_stages(), 1);
  EXPECT_EQ(testing::paths(g1), std::vector<std::vector<int>>{{0}});
  EXPECT_EQ(g1.path_sums_through({0.5}), std::vector<double>{0.5});

  CallGraph::Builder chain;
  const int a = chain.add_stage("a", stage_profile("a", 0.02));
  const int b = chain.add_stage("b", stage_profile("b", 0.03));
  const int c = chain.add_stage("c", stage_profile("c", 0.04));
  chain.add_edge(a, b);
  chain.add_edge(b, c);
  const CallGraph g3 = chain.build();
  EXPECT_EQ(g3.max_path_stages(), 3);
  ASSERT_EQ(testing::paths(g3).size(), 1u);
  EXPECT_EQ(g3.path_sums_through({1.0, 2.0, 4.0}),
            (std::vector<double>{7.0, 7.0, 7.0}));
}

TEST(CallGraph, StagePinToString) {
  EXPECT_STREQ(to_string(StagePin::kManaged), "managed");
  EXPECT_STREQ(to_string(StagePin::kIaasOnly), "iaas_only");
  EXPECT_STREQ(to_string(StagePin::kServerlessOnly), "serverless_only");
}

}  // namespace
}  // namespace amoeba::workload
