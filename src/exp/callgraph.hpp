// Call-graph runs — DAGs of managed stages under one end-to-end SLO.
//
// `run_callgraph` is an adapter that hands ONE flow to the shared-node
// driver (shared_node.hpp): a user query enters every root of a
// workload::CallGraph and propagates along edges (AND-join: a stage fires
// once all parents finished for that query). End-to-end latency is the
// critical-path sum over stage completions, and the run is judged against
// one end-to-end p95 target. Each stage is a per-stage AmoebaRuntime over
// the shared node — the cluster coupling (run_cluster is N one-stage
// flows), plus the query-flow coupling on top.
//
// Budget decomposition closes the end-to-end loop: in kEndToEndAware mode
// the driver's core::BudgetDecomposer splits the SLO into per-stage
// budgets (critical-path-weighted) and renormalizes them every renorm tick
// from the observed per-stage p95s, pushing the result into each stage's
// controller via AmoebaRuntime::set_qos_target — a slow downstream stage
// tightens upstream budgets and can flip upstream platform choices. The
// kNaiveEqual baseline fixes every budget at T / max_path_stages. Applied
// budgets are clamped to a feasibility floor (a small factor over the
// stage's ideal solo IaaS latency): an M/M/c system cannot beat its own
// service time, and the just-enough VM sizing would reject an infeasible
// target outright.
//
// What the adapter adds: stages are named "<base>@s<k>" and carry their
// canonical index into the audit log; the provisioned root peak defaults
// to the first root's profile peak; every stage must be able to meet T
// alone; end-to-end query spans go on the "callgraph/e2e" track; and the
// result reports the end-to-end latency and the query ledger.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/shared_node.hpp"
#include "exp/table.hpp"
#include "workload/call_graph.hpp"

namespace amoeba::exp {

struct CallGraphRunOptions : SharedNodeOptions {
  /// How the end-to-end target splits into per-stage budgets.
  BudgetMode budget_mode = BudgetMode::kEndToEndAware;
  /// End-to-end p95 latency target for the whole DAG (required, > 0).
  double e2e_qos_target_s = 0.0;
  /// Peak arrival rate at the DAG roots; 0 = the first root stage's
  /// profile peak. Every stage sees this traffic (one invocation per
  /// query per stage), so per-stage provisioning uses it too.
  double root_peak_qps = 0.0;
};

/// Per-stage outcome (canonical stage order).
struct CallGraphStageResult : StageResultBase {
  int stage = 0;      ///< canonical index; name is "<base>@s<stage>"
  std::string label;  ///< declared label (reporting only)
  workload::StagePin pin = workload::StagePin::kManaged;
  double initial_budget_s = 0.0;  ///< applied at setup (after clamping)
  double final_budget_s = 0.0;    ///< applied after the last renorm tick
  std::uint64_t submitted = 0;    ///< queries entering the stage (all)
  std::uint64_t finished = 0;     ///< stage completions (all)
  std::uint64_t switches = 0;
};

struct CallGraphRunResult : SharedNodeResult {
  std::vector<CallGraphStageResult> stages;
  BudgetMode budget_mode = BudgetMode::kEndToEndAware;
  double e2e_qos_target_s = 0.0;
  stats::SampleSet e2e_latencies;  ///< root-to-last-leaf, post-warmup
  /// Query conservation ledger: every injected query is either fully
  /// completed (every stage finished it exactly once) or still in flight
  /// at the cut-off — root_injected == queries_completed +
  /// queries_unfinished, exactly.
  std::uint64_t root_injected = 0;
  std::uint64_t queries_completed = 0;
  std::uint64_t queries_unfinished = 0;
  core::ServiceUsage stages_usage;  ///< Σ per-stage usage

  [[nodiscard]] double e2e_p95() const { return e2e_latencies.quantile(0.95); }
  [[nodiscard]] double e2e_violation_fraction() const {
    return e2e_latencies.fraction_above(e2e_qos_target_s);
  }
  [[nodiscard]] double total_core_hours() const {
    return core_hours_with(stages_usage);
  }
  [[nodiscard]] double total_memory_gb_hours() const {
    return memory_gb_hours_with(stages_usage);
  }
  [[nodiscard]] const CallGraphStageResult* find(
      const std::string& name) const {
    return find_named(stages, name);
  }
};

/// Run one call graph on the shared node. `artifacts[k]` are the profiled
/// artifacts of stage k's base profile, in canonical stage order (the
/// canonical order is declaration-independent, so look bases up by
/// graph.stage(k).profile.name).
[[nodiscard]] CallGraphRunResult run_callgraph(
    const workload::CallGraph& graph,
    const std::vector<core::ServiceArtifacts>& artifacts,
    const ClusterConfig& cluster, const core::MeterCalibration& calibration,
    const CallGraphRunOptions& opt);

/// Human-readable per-stage table with a trailing end-to-end row.
[[nodiscard]] Table callgraph_table(const CallGraphRunResult& r);

}  // namespace amoeba::exp
