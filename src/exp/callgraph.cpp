#include "exp/callgraph.hpp"

#include <utility>

#include "exp/node_driver.hpp"

namespace amoeba::exp {

CallGraphRunResult run_callgraph(
    const workload::CallGraph& graph,
    const std::vector<core::ServiceArtifacts>& artifacts,
    const ClusterConfig& cluster, const core::MeterCalibration& calibration,
    const CallGraphRunOptions& opt) {
  const auto n = static_cast<std::size_t>(graph.size());
  AMOEBA_EXPECTS_MSG(artifacts.size() == n,
                     "need one ServiceArtifacts per stage, canonical order");
  AMOEBA_EXPECTS_VALS(opt.e2e_qos_target_s > 0.0, opt.e2e_qos_target_s);
  const double root_peak =
      opt.root_peak_qps > 0.0
          ? opt.root_peak_qps
          : graph.stage(graph.roots().front()).profile.peak_load_qps;
  AMOEBA_EXPECTS_VALS(root_peak > 0.0, root_peak);

  NodeFlow flow{graph, {}, opt.e2e_qos_target_s, root_peak, 0.0,
                "callgraph/e2e"};
  for (std::size_t k = 0; k < n; ++k) {
    const int s = static_cast<int>(k);
    const double ideal = graph.stage(s).profile.ideal_iaas_latency(
        cluster.iaas.disk_bps, cluster.iaas.net_bps);
    AMOEBA_EXPECTS_MSG(
        kFeasibilityFloorFactor * ideal < opt.e2e_qos_target_s,
        "stage cannot meet the end-to-end target alone: " +
            graph.service_name(s));
    flow.stages.push_back(
        FlowStage{graph.service_name(s), s, &artifacts[k]});
  }
  NodeRun run = run_shared_node({flow}, cluster, calibration, opt,
                                opt.budget_mode, false);

  CallGraphRunResult result;
  static_cast<SharedNodeResult&>(result) = run;
  result.budget_mode = opt.budget_mode;
  result.e2e_qos_target_s = opt.e2e_qos_target_s;
  result.e2e_latencies = std::move(run.flows[0].e2e_latencies);
  result.root_injected = run.flows[0].injected;
  result.queries_completed = run.flows[0].completed;
  result.queries_unfinished = run.flows[0].unfinished;
  result.stages_usage = run.stages_usage;
  result.stages.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    StageRun& st = run.stages[k];
    CallGraphStageResult out;
    out.stage = static_cast<int>(k);
    out.label = graph.stage(out.stage).label;
    out.pin = graph.stage(out.stage).pin;
    out.initial_budget_s = st.initial_budget_s;
    out.final_budget_s = st.final_budget_s;
    out.submitted = st.submitted;
    out.finished = st.finished;
    out.switches = st.switches.size();
    static_cast<StageResultBase&>(out) = std::move(st);
    result.stages.push_back(std::move(out));
  }
  return result;
}

Table callgraph_table(const CallGraphRunResult& r) {
  Table t({"stage", "label", "pin", "budget0_s", "budget_s", "queries",
           "p95_s", "switches", "core_h"});
  for (const auto& s : r.stages) {
    t.add_row({std::to_string(s.stage) + ":" + s.name, s.label,
               workload::to_string(s.pin), fmt_fixed(s.initial_budget_s, 3),
               fmt_fixed(s.final_budget_s, 3), std::to_string(s.finished),
               fmt_fixed(s.p95(), 3), std::to_string(s.switches),
               fmt_fixed(s.usage.cpu_core_seconds / 3600.0, 2)});
  }
  t.add_row({"E2E", to_string(r.budget_mode), "-",
             fmt_fixed(r.e2e_qos_target_s, 3),
             fmt_fixed(r.e2e_qos_target_s, 3),
             std::to_string(r.queries_completed), fmt_fixed(r.e2e_p95(), 3),
             "-", fmt_fixed(r.total_core_hours(), 2)});
  return t;
}

}  // namespace amoeba::exp
