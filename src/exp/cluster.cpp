#include "exp/cluster.hpp"

#include <utility>

#include "exp/node_driver.hpp"

namespace amoeba::exp {

std::vector<workload::FunctionProfile> cluster_tenants(int n,
                                                       double peak_fraction) {
  AMOEBA_EXPECTS(n > 0);
  const auto suite = workload::functionbench_suite();
  std::vector<workload::FunctionProfile> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back(workload::as_tenant(
        suite[static_cast<std::size_t>(i) % suite.size()], i, peak_fraction));
  }
  return out;
}

ClusterRunResult run_cluster(const std::vector<ClusterServiceSpec>& specs,
                             const ClusterConfig& cluster,
                             const core::MeterCalibration& calibration,
                             const ClusterRunOptions& opt) {
  AMOEBA_EXPECTS_MSG(!specs.empty(), "cluster run needs at least one service");
  // Each tenant is a one-stage flow judged against its own QoS target; the
  // naive split hands a lone stage its whole target.
  std::vector<NodeFlow> flows;
  flows.reserve(specs.size());
  for (const ClusterServiceSpec& spec : specs) {
    workload::CallGraph::Builder b;
    b.add_stage(spec.profile.name, spec.profile);
    flows.push_back(NodeFlow{
        b.build(), {FlowStage{spec.profile.name, -1, &spec.artifacts}},
        spec.profile.qos_target_s, spec.profile.peak_load_qps, spec.phase,
        {}});
  }
  NodeRun run = run_shared_node(flows, cluster, calibration, opt,
                                BudgetMode::kNaiveEqual, opt.keep_records);

  ClusterRunResult result;
  static_cast<SharedNodeResult&>(result) = run;
  result.services_usage = run.stages_usage;
  result.services.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    StageRun& st = run.stages[i];
    ClusterServiceResult svc;
    svc.qos_target_s = specs[i].profile.qos_target_s;
    svc.records = std::move(st.records);
    svc.queries = st.latencies.size();
    svc.switches = std::move(st.switches);
    static_cast<StageResultBase&>(svc) = std::move(st);
    result.services.push_back(std::move(svc));
  }
  return result;
}

Table cluster_table(const ClusterRunResult& r) {
  Table t({"service", "qos_s", "queries", "p95_s", "viol", "switches",
           "n_max", "core_h", "mem_GBh"});
  for (const auto& s : r.services) {
    t.add_row({s.name, fmt_fixed(s.qos_target_s, 3),
               std::to_string(s.queries), fmt_fixed(s.p95(), 3),
               fmt_percent(s.violation_fraction()),
               std::to_string(s.switches.size()),
               std::to_string(s.n_max_granted) + "/" +
                   std::to_string(s.n_max_asked),
               fmt_fixed(s.usage.cpu_core_seconds / 3600.0, 2),
               fmt_fixed(s.usage.memory_mb_seconds / (1024.0 * 3600.0), 2)});
  }
  t.add_row({"TOTAL(+meters)", "-", "-", "-", "-", "-", "-",
             fmt_fixed(r.total_core_hours(), 2),
             fmt_fixed(r.total_memory_gb_hours(), 2)});
  return t;
}

}  // namespace amoeba::exp
