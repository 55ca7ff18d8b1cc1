// Property and scenario tests for exp::run_callgraph.
//
// Call-graph runs are exercised like the cluster runs: several random
// (seed, shape) combinations checked against invariants that must hold for
// ANY run — the query-conservation ledger balances exactly, AND-join
// admission never lets a stage see a query before its parents finished it,
// budgets stay inside (0, T], and the shared pool respects the node
// budget. Metamorphic tests pin the canonicalization contract end to end:
// relabeling stages or permuting sibling declarations must reproduce the
// simulation bit for bit.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "exp/callgraph.hpp"
#include "exp/cluster.hpp"
#include "exp/profiling.hpp"
#include "exp/sweep.hpp"
#include "workload/functionbench.hpp"

namespace amoeba::exp {
namespace {

struct Fixture {
  ClusterConfig cluster;
  core::MeterCalibration calibration;
  workload::FunctionProfile float_base;
  workload::FunctionProfile dd_base;
  core::ServiceArtifacts float_artifacts;
  core::ServiceArtifacts dd_artifacts;

  Fixture() : cluster(default_cluster()) {
    ProfilingConfig cfg;
    cfg.pressure_grid = {0.05, 0.45, 0.85};
    cfg.load_fractions = {0.1, 0.5, 1.0};
    cfg.cell_duration_s = 10.0;
    cfg.warmup_s = 3.0;
    cfg.threads = 1;
    calibration = profile_meters(cluster, cfg);
    float_base = workload::make_float();
    dd_base = workload::make_dd();
    float_artifacts = profile_service(float_base, cluster, calibration, cfg);
    dd_artifacts = profile_service(dd_base, cluster, calibration, cfg);
  }

  [[nodiscard]] workload::FunctionProfile tenant_of(bool heavy,
                                                    int i) const {
    return workload::as_tenant(heavy ? dd_base : float_base, i, 0.5);
  }

  /// Artifacts for each canonical stage, matched by base profile name.
  [[nodiscard]] std::vector<core::ServiceArtifacts> artifacts_for(
      const workload::CallGraph& g) const {
    std::vector<core::ServiceArtifacts> out;
    out.reserve(static_cast<std::size_t>(g.size()));
    for (int k = 0; k < g.size(); ++k) {
      const bool heavy =
          g.stage(k).profile.name.rfind(dd_base.name, 0) == 0;
      out.push_back(heavy ? dd_artifacts : float_artifacts);
    }
    return out;
  }

  /// End-to-end target: a modest multiple of the summed per-stage QoS
  /// targets — comfortably feasible for any of the test shapes.
  [[nodiscard]] static double e2e_target(const workload::CallGraph& g) {
    double sum = 0.0;
    for (int k = 0; k < g.size(); ++k) {
      sum += g.stage(k).profile.qos_target_s;
    }
    return 1.2 * sum;
  }
};

const Fixture& fix() {
  static Fixture f;
  return f;
}

enum class Shape { kChain2, kDiamond4, kFanOut3 };

workload::CallGraph make_graph(Shape shape) {
  const Fixture& f = fix();
  workload::CallGraph::Builder b;
  switch (shape) {
    case Shape::kChain2: {
      const int front = b.add_stage("front", f.tenant_of(false, 0));
      const int back = b.add_stage("back", f.tenant_of(true, 1));
      b.add_edge(front, back);
      break;
    }
    case Shape::kDiamond4: {
      const int front = b.add_stage("front", f.tenant_of(false, 0));
      const int left = b.add_stage("left", f.tenant_of(true, 1));
      const int right = b.add_stage("right", f.tenant_of(false, 2));
      const int back = b.add_stage("back", f.tenant_of(false, 3));
      b.add_edge(front, left);
      b.add_edge(front, right);
      b.add_edge(left, back);
      b.add_edge(right, back);
      break;
    }
    case Shape::kFanOut3: {
      const int front = b.add_stage("front", f.tenant_of(false, 0));
      const int out_a = b.add_stage("out_a", f.tenant_of(false, 1));
      const int out_b = b.add_stage("out_b", f.tenant_of(true, 2));
      b.add_edge(front, out_a);
      b.add_edge(front, out_b);
      break;
    }
  }
  return b.build();
}

CallGraphRunOptions small_options(const workload::CallGraph& g,
                                  std::uint64_t seed) {
  CallGraphRunOptions opt;
  opt.period_s = 240.0;
  opt.duration_days = 1.0;
  opt.warmup_s = 40.0;
  opt.e2e_qos_target_s = Fixture::e2e_target(g);
  opt.seed = seed;
  opt.node_container_budget = 48;
  opt.meter_reserve_containers = 6;
  return opt;
}

/// Invariants that must hold for ANY fault-free call-graph run.
void check_invariants(const workload::CallGraph& g,
                      const CallGraphRunResult& r,
                      const CallGraphRunOptions& opt) {
  ASSERT_EQ(r.stages.size(), static_cast<std::size_t>(g.size()));

  // Query conservation ledger, exact.
  EXPECT_EQ(r.root_injected, r.queries_completed + r.queries_unfinished);
  EXPECT_GT(r.queries_completed, 50u);

  for (const int root : g.roots()) {
    EXPECT_EQ(r.stages[static_cast<std::size_t>(root)].submitted,
              r.root_injected);
  }
  int granted = 0;
  for (int k = 0; k < g.size(); ++k) {
    const auto& s = r.stages[static_cast<std::size_t>(k)];
    SCOPED_TRACE(s.name);
    EXPECT_EQ(s.stage, k);
    EXPECT_EQ(s.name, g.service_name(k));
    EXPECT_EQ(s.label, g.stage(k).label);
    EXPECT_GE(s.finished, 1u);
    EXPECT_LE(s.finished, s.submitted);
    EXPECT_LE(s.submitted, r.root_injected);
    // AND-join admission: a stage cannot have seen a query any parent has
    // not finished.
    for (const int p : g.parents(k)) {
      EXPECT_LE(s.submitted, r.stages[static_cast<std::size_t>(p)].finished);
    }
    EXPECT_GT(s.initial_budget_s, 0.0);
    EXPECT_LE(s.initial_budget_s, opt.e2e_qos_target_s);
    EXPECT_GT(s.final_budget_s, 0.0);
    EXPECT_LE(s.final_budget_s, opt.e2e_qos_target_s);
    EXPECT_GE(s.n_max_granted, 1);
    EXPECT_LE(s.n_max_granted, s.n_max_asked);
    granted += s.n_max_granted;
    EXPECT_GE(s.p95(), 0.0);
  }
  EXPECT_LE(granted,
            opt.node_container_budget - opt.meter_reserve_containers);

  // Pool conservation, same bounds as cluster runs.
  const double pool_mb = fix().cluster.serverless.pool_memory_mb;
  EXPECT_GT(r.pool_memory_mb_seconds, 0.0);
  EXPECT_LE(r.pool_memory_mb_seconds, pool_mb * r.duration_s * (1.0 + 1e-9));
  EXPECT_LE(r.peak_pool_memory_mb, pool_mb);
  EXPECT_LE(r.peak_pool_containers, opt.node_container_budget);
  EXPECT_GT(r.total_core_hours(), 0.0);
  EXPECT_GT(r.total_memory_gb_hours(), 0.0);
  EXPECT_EQ(r.fault_counters.total(), 0u);
  EXPECT_GT(r.events_executed, 0u);
}

TEST(CallGraphInvariants, HoldAcrossRandomSeedsAndShapes) {
  struct Combo {
    Shape shape;
    std::uint64_t seed;
  };
  std::vector<Combo> combos;
  std::uint64_t k = 1;
  for (int rep = 0; rep < 3; ++rep) {
    for (Shape s : {Shape::kChain2, Shape::kDiamond4, Shape::kFanOut3}) {
      combos.push_back(Combo{s, 0x51ed2701u * k++});
    }
  }
  ASSERT_EQ(combos.size(), 9u);

  const auto results =
      parallel_map<CallGraphRunResult>(combos.size(), 4, [&](std::size_t i) {
        const Combo& c = combos[i];
        const workload::CallGraph g = make_graph(c.shape);
        return run_callgraph(g, fix().artifacts_for(g), fix().cluster,
                             fix().calibration, small_options(g, c.seed));
      });
  for (std::size_t i = 0; i < combos.size(); ++i) {
    SCOPED_TRACE("combo=" + std::to_string(i) +
                 " seed=" + std::to_string(combos[i].seed));
    const workload::CallGraph g = make_graph(combos[i].shape);
    check_invariants(g, results[i], small_options(g, combos[i].seed));
  }
}

TEST(CallGraphInvariants, NaiveEqualModeSatisfiesTheSameLedger) {
  const workload::CallGraph g = make_graph(Shape::kDiamond4);
  CallGraphRunOptions opt = small_options(g, 77);
  opt.budget_mode = BudgetMode::kNaiveEqual;
  const auto r = run_callgraph(g, fix().artifacts_for(g), fix().cluster,
                               fix().calibration, opt);
  check_invariants(g, r, opt);
  // Naive budgets never renormalize: final == initial for every stage.
  for (const auto& s : r.stages) {
    EXPECT_DOUBLE_EQ(s.final_budget_s, s.initial_budget_s) << s.name;
  }
}

TEST(CallGraphMetamorphic, RelabelingAndPermutationPreserveTheTrace) {
  // The same diamond declared three ways: reference, relabeled, and with
  // sibling declarations permuted. The canonical CallGraph is identical,
  // so the simulation must be bit-identical too.
  const Fixture& f = fix();
  auto declare = [&f](const std::vector<std::string>& labels,
                      const std::vector<int>& order) {
    const std::vector<workload::FunctionProfile> profiles = {
        f.tenant_of(false, 0), f.tenant_of(true, 1), f.tenant_of(false, 2),
        f.tenant_of(false, 3)};
    workload::CallGraph::Builder b;
    std::vector<int> handle(4, -1);
    for (const int conceptual : order) {
      handle[static_cast<std::size_t>(conceptual)] =
          b.add_stage(labels[static_cast<std::size_t>(conceptual)],
                      profiles[static_cast<std::size_t>(conceptual)]);
    }
    b.add_edge(handle[0], handle[1]);
    b.add_edge(handle[0], handle[2]);
    b.add_edge(handle[1], handle[3]);
    b.add_edge(handle[2], handle[3]);
    return b.build();
  };

  const workload::CallGraph ref =
      declare({"front", "left", "right", "back"}, {0, 1, 2, 3});
  const workload::CallGraph relabeled =
      declare({"entry", "l", "r", "sink"}, {0, 1, 2, 3});
  const workload::CallGraph permuted =
      declare({"front", "left", "right", "back"}, {3, 2, 1, 0});
  ASSERT_EQ(relabeled.structure_hash(), ref.structure_hash());
  ASSERT_EQ(permuted.structure_hash(), ref.structure_hash());

  const auto run = [&](const workload::CallGraph& g) {
    return run_callgraph(g, fix().artifacts_for(g), fix().cluster,
                         fix().calibration, small_options(g, 42));
  };
  const auto r_ref = run(ref);
  const auto r_rel = run(relabeled);
  const auto r_perm = run(permuted);

  EXPECT_EQ(r_rel.trace_hash, r_ref.trace_hash);
  EXPECT_EQ(r_perm.trace_hash, r_ref.trace_hash);
  // Bitwise-equal end-to-end results, not merely close.
  EXPECT_EQ(r_rel.e2e_p95(), r_ref.e2e_p95());
  EXPECT_EQ(r_perm.e2e_p95(), r_ref.e2e_p95());
  EXPECT_EQ(r_rel.events_executed, r_ref.events_executed);
  for (std::size_t k = 0; k < r_ref.stages.size(); ++k) {
    EXPECT_EQ(r_rel.stages[k].name, r_ref.stages[k].name);
    EXPECT_EQ(r_rel.stages[k].final_budget_s, r_ref.stages[k].final_budget_s);
    EXPECT_EQ(r_perm.stages[k].finished, r_ref.stages[k].finished);
  }
  // Labels are reporting-only and follow the declaration.
  EXPECT_EQ(r_rel.stages[0].label, "entry");
  EXPECT_EQ(r_ref.stages[0].label, "front");
}

TEST(CallGraphBudgets, AwareModeDivergesFromNaiveOnAsymmetricChains) {
  // float -> dd: the heavy stage owns most of the latency, so the aware
  // split must hand it a larger share of T than the naive equal split,
  // and the two simulations diverge.
  const workload::CallGraph g = make_graph(Shape::kChain2);
  CallGraphRunOptions aware_opt = small_options(g, 5);
  CallGraphRunOptions naive_opt = aware_opt;
  naive_opt.budget_mode = BudgetMode::kNaiveEqual;

  const auto aware = run_callgraph(g, fix().artifacts_for(g), fix().cluster,
                                   fix().calibration, aware_opt);
  const auto naive = run_callgraph(g, fix().artifacts_for(g), fix().cluster,
                                   fix().calibration, naive_opt);

  int heavy = -1;
  for (int k = 0; k < g.size(); ++k) {
    if (g.stage(k).label == "back") heavy = k;
  }
  ASSERT_GE(heavy, 0);
  const auto hi = static_cast<std::size_t>(heavy);
  EXPECT_GT(aware.stages[hi].initial_budget_s,
            naive.stages[hi].initial_budget_s);
  EXPECT_NE(aware.trace_hash, naive.trace_hash);
}

// --- result lookup and table (no simulation needed) ---

CallGraphRunResult sample_result() {
  CallGraphRunResult r;
  r.budget_mode = BudgetMode::kEndToEndAware;
  r.e2e_qos_target_s = 0.9;
  r.duration_s = 280.0;
  r.trace_hash = 0x0123456789abcdefULL;
  r.root_injected = 120;
  r.queries_completed = 118;
  r.queries_unfinished = 2;
  for (int i = 1; i <= 100; ++i) {
    r.e2e_latencies.add(0.005 * static_cast<double>(i));
  }
  r.stages_usage.cpu_core_seconds = 720.0;
  r.stages_usage.memory_mb_seconds = 1024.0 * 360.0;
  r.meter_usage.cpu_core_seconds = 36.0;
  r.peak_pool_containers = 31;
  r.prewarm_denied_total = 5;

  CallGraphStageResult a;
  a.stage = 0;
  a.name = "float#0@s0";
  a.label = "front";
  a.pin = workload::StagePin::kManaged;
  a.initial_budget_s = 0.3;
  a.final_budget_s = 0.35;
  a.submitted = 120;
  a.finished = 120;
  a.latencies.add(0.12);
  a.switches = 2;
  a.switch_aborts = 1;
  a.prewarm_denied = 5;
  a.n_max_asked = 8;
  a.n_max_granted = 6;
  a.usage.cpu_core_seconds = 600.0;
  a.usage.memory_mb_seconds = 1024.0 * 300.0;

  CallGraphStageResult b;
  b.stage = 1;
  b.name = "dd#1@s1";
  b.label = "back";
  b.pin = workload::StagePin::kIaasOnly;
  b.initial_budget_s = 0.6;
  b.final_budget_s = 0.55;
  b.submitted = 120;
  b.finished = 118;
  b.latencies.add(0.4);
  b.n_max_asked = 4;
  b.n_max_granted = 4;

  r.stages = {a, b};
  return r;
}

TEST(CallGraphRunResultLookup, FindByName) {
  const CallGraphRunResult r = sample_result();
  ASSERT_NE(r.find("dd#1@s1"), nullptr);
  EXPECT_EQ(r.find("dd#1@s1")->n_max_granted, 4);
  EXPECT_EQ(r.find("absent"), nullptr);
}

TEST(CallGraphTable, OneRowPerStagePlusTheE2ERow) {
  const Table t = callgraph_table(sample_result());
  EXPECT_EQ(t.rows(), 3u);  // 2 stages + E2E
  EXPECT_EQ(t.cols(), 9u);
}

}  // namespace
}  // namespace amoeba::exp
