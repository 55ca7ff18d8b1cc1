// Bit-exact anchors for the drivers behind every figure: the shared-node
// driver behind run_cluster and run_callgraph, and run_managed, plus the
// invariant the shared-node driver rests on.
//
// The shared-node anchors pin the event-trace hash and a hash of every
// result field the figures read of four small runs: an N=3 cluster, the
// same cluster with faults injected, and a diamond call graph in each
// budget mode. The managed anchors pin the same two hashes of one small
// run_managed day per deployment system plus fault-injected Amoeba, Nameko
// and OpenWhisk days. Any change to set-up order, rng forks, arbitration,
// budgets or result collection moves them; a change that moves numerics on
// purpose re-records them and says so. The result hash leaves the trace
// hash out, so a change that moves only the event sequence (fewer events,
// the same simulated outcome) moves the trace literal alone: every trace
// literal was re-recorded, and no result literal, when rejected thinning
// candidates stopped being engine events.
// ObservabilityAnchor pins the exported trace, audit log and metrics of
// the fault-injected Amoeba day, whose switches abort and retry.
//
// ClusterCallGraph.OneStageGraphEqualsOneTenantCluster pins the premise of
// the shared driver: a cluster tenant is a one-stage call graph whose
// end-to-end target is the tenant's QoS target.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ios>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "exp/callgraph.hpp"
#include "exp/cluster.hpp"
#include "exp/profiling.hpp"
#include "exp/scenario.hpp"
#include "obs/exporters.hpp"
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

  [[nodiscard]] const core::ServiceArtifacts& artifacts_of(
      const workload::FunctionProfile& p) const {
    return p.name.rfind(dd_base.name, 0) == 0 ? dd_artifacts
                                               : float_artifacts;
  }
};

const Fixture& fix() {
  static Fixture f;
  return f;
}

/// FNV-1a over 64-bit words (doubles by their bits, strings by their
/// length and bytes): the digest behind every result hash below.
class Digest {
 public:
  void word(std::uint64_t w) {
    for (int b = 0; b < 8; ++b) byte((w >> (8 * b)) & 0xffU);
  }
  void real(double v) { word(std::bit_cast<std::uint64_t>(v)); }
  void text(std::string_view s) {
    word(s.size());
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void byte(std::uint64_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// What every shared-node run reports node-wide.
void digest_node(Digest& d, const SharedNodeResult& r) {
  d.real(r.duration_s);
  d.word(static_cast<std::uint64_t>(r.peak_pool_containers));
  d.real(r.peak_pool_memory_mb);
  d.word(r.pool_evictions);
  d.word(r.prewarm_denied_total);
}

/// What every stage or tenant reports.
void digest_stage(Digest& d, const StageResultBase& s) {
  d.text(s.name);
  d.real(s.p95());
  d.word(s.switch_aborts);
  d.word(s.switch_retries);
  d.word(s.prewarm_denied);
  d.word(static_cast<std::uint64_t>(s.n_max_asked));
  d.word(static_cast<std::uint64_t>(s.n_max_granted));
  d.real(s.usage.cpu_core_seconds);
  d.real(s.usage.memory_mb_seconds);
}

/// Every result field Fig. 17 reads from a cluster run.
std::uint64_t cluster_result_hash(const ClusterRunResult& r) {
  Digest d;
  digest_node(d, r);
  d.real(r.total_core_hours());
  d.real(r.total_memory_gb_hours());
  d.word(r.services.size());
  for (const ClusterServiceResult& s : r.services) {
    digest_stage(d, s);
    d.real(s.qos_target_s);
    d.word(s.queries);
    d.real(s.violation_fraction());
    d.word(s.switches.size());
  }
  return d.value();
}

/// Every result field Fig. 18 reads from a call-graph run.
std::uint64_t callgraph_result_hash(const CallGraphRunResult& r) {
  Digest d;
  digest_node(d, r);
  d.real(r.total_core_hours());
  d.real(r.total_memory_gb_hours());
  d.word(static_cast<std::uint64_t>(r.budget_mode));
  d.real(r.e2e_qos_target_s);
  d.real(r.e2e_p95());
  d.real(r.e2e_violation_fraction());
  d.word(r.root_injected);
  d.word(r.queries_completed);
  d.word(r.queries_unfinished);
  d.word(r.stages.size());
  for (const CallGraphStageResult& s : r.stages) {
    digest_stage(d, s);
    d.word(static_cast<std::uint64_t>(s.stage));
    d.text(s.label);
    d.word(static_cast<std::uint64_t>(s.pin));
    d.real(s.initial_budget_s);
    d.real(s.final_budget_s);
    d.word(s.submitted);
    d.word(s.finished);
    d.word(s.switches);
  }
  return d.value();
}

std::string hex(std::uint64_t h) {
  std::ostringstream os;
  os << "0x" << std::hex << h;
  return os.str();
}

template <typename Options>
void small_day(Options& opt, std::uint64_t seed) {
  opt.period_s = 240.0;
  opt.duration_days = 1.0;
  opt.warmup_s = 40.0;
  opt.seed = seed;
  if constexpr (requires { opt.node_container_budget; }) {
    opt.node_container_budget = 48;
    opt.meter_reserve_containers = 6;
  }
}

ClusterRunResult run_cluster_n3(const sim::FaultConfig& faults) {
  const Fixture& f = fix();
  std::vector<ClusterServiceSpec> specs;
  for (int i = 0; i < 3; ++i) {
    const auto base = i == 1 ? f.dd_base : f.float_base;
    specs.push_back(ClusterServiceSpec{workload::as_tenant(base, i, 0.5),
                                       f.artifacts_of(base),
                                       static_cast<double>(i) / 3.0});
  }
  ClusterRunOptions opt;
  small_day(opt, 11);
  opt.faults = faults;
  auto r = run_cluster(specs, f.cluster, f.calibration, opt);
  for (const auto& s : r.services) EXPECT_GT(s.queries, 100u) << s.name;
  return r;
}

/// front -> {left, right} -> back, with one pin of each kind.
workload::CallGraph anchor_diamond() {
  const Fixture& f = fix();
  workload::CallGraph::Builder b;
  const int front =
      b.add_stage("front", workload::as_tenant(f.float_base, 0, 0.5));
  const int left = b.add_stage("left", workload::as_tenant(f.dd_base, 1, 0.5),
                               workload::StagePin::kIaasOnly);
  const int right =
      b.add_stage("right", workload::as_tenant(f.float_base, 2, 0.5),
                  workload::StagePin::kServerlessOnly);
  const int back =
      b.add_stage("back", workload::as_tenant(f.float_base, 3, 0.5));
  b.add_edge(front, left);
  b.add_edge(front, right);
  b.add_edge(left, back);
  b.add_edge(right, back);
  return b.build();
}

CallGraphRunResult run_diamond(BudgetMode mode) {
  const Fixture& f = fix();
  const workload::CallGraph g = anchor_diamond();
  std::vector<core::ServiceArtifacts> artifacts;
  double sum = 0.0;
  for (int k = 0; k < g.size(); ++k) {
    artifacts.push_back(f.artifacts_of(g.stage(k).profile));
    sum += g.stage(k).profile.qos_target_s;
  }
  CallGraphRunOptions opt;
  small_day(opt, 13);
  opt.e2e_qos_target_s = 1.2 * sum;
  opt.budget_mode = mode;
  auto r = run_callgraph(g, artifacts, f.cluster, f.calibration, opt);
  EXPECT_GT(r.queries_completed, 100u);
  return r;
}

TEST(DriverAnchor, ClusterIsBitIdenticalToRecordedHashes) {
  const auto r = run_cluster_n3(sim::FaultConfig{});
  EXPECT_EQ(hex(r.trace_hash), "0xe3872ca7d4a4db14") << "trace";
  EXPECT_EQ(hex(cluster_result_hash(r)), "0xb5b28fc63e7569bf") << "result";
}

TEST(DriverAnchor, FaultyClusterIsBitIdenticalToRecordedHashes) {
  sim::FaultConfig faults;
  faults.container_boot_failure_p = 0.15;
  faults.container_straggler_p = 0.10;
  faults.vm_boot_failure_p = 0.10;
  faults.meter_drop_p = 0.10;
  faults.meter_outlier_p = 0.05;
  const auto r = run_cluster_n3(faults);
  ASSERT_GT(r.fault_counters.total(), 0u) << "no faults actually injected";
  EXPECT_EQ(hex(r.trace_hash), "0x3fcfabe8448d3e89") << "trace";
  EXPECT_EQ(hex(cluster_result_hash(r)), "0x307413d988108c1e") << "result";
}

TEST(DriverAnchor, AwareDiamondIsBitIdenticalToRecordedHashes) {
  const auto r = run_diamond(BudgetMode::kEndToEndAware);
  EXPECT_EQ(hex(r.trace_hash), "0x87d9fd5874559c28") << "trace";
  EXPECT_EQ(hex(callgraph_result_hash(r)), "0x41c06d41e5c39bd7") << "result";
}

TEST(DriverAnchor, NaiveDiamondIsBitIdenticalToRecordedHashes) {
  const auto r = run_diamond(BudgetMode::kNaiveEqual);
  EXPECT_EQ(hex(r.trace_hash), "0x2e529f3cf0890f59") << "trace";
  EXPECT_EQ(hex(callgraph_result_hash(r)), "0x921438605902e547") << "result";
}

/// Every result field Figs. 10-16 read from a managed day. A switch's
/// service name is left out; a managed day has one service.
std::uint64_t managed_result_hash(const ManagedRunResult& r) {
  Digest d;
  d.word(r.queries);
  d.real(r.p95());
  d.real(r.usage.cpu_core_seconds);
  d.real(r.usage.memory_mb_seconds);
  d.word(r.switches.size());
  for (const auto& sw : r.switches) {
    d.real(sw.time);
    d.word(static_cast<std::uint64_t>(sw.to));
    d.real(sw.load_qps);
  }
  d.word(r.switch_aborts);
  d.word(r.switch_retries);
  for (const auto* series :
       {&r.timeline.load_qps, &r.timeline.mode, &r.timeline.cpu_core_seconds,
        &r.timeline.memory_mb_seconds}) {
    d.word(series->size());
    for (const auto& p : series->points()) {
      d.real(p.t);
      d.real(p.value);
    }
  }
  return d.value();
}

ManagedRunResult run_managed_day(DeploySystem system,
                                 const sim::FaultConfig& faults,
                                 bool keep_records = false,
                                 obs::Observer* observer = nullptr) {
  const Fixture& f = fix();
  ManagedRunOptions opt;
  small_day(opt, 17);
  opt.faults = faults;
  opt.keep_records = keep_records;
  opt.observer = observer;
  auto r = run_managed(f.float_base, system, f.cluster, f.calibration,
                       f.float_artifacts, opt);
  EXPECT_GT(r.queries, 100u) << to_string(system);
  return r;
}

/// Boot failures high enough that one Amoeba switch retries and one
/// aborts, and that Nameko's VM reboots and sheds arrivals while down.
sim::FaultConfig managed_faults() {
  sim::FaultConfig faults;
  faults.container_boot_failure_p = 0.4;
  faults.container_straggler_p = 0.10;
  faults.vm_boot_failure_p = 0.5;
  faults.meter_drop_p = 0.10;
  faults.meter_outlier_p = 0.05;
  return faults;
}

TEST(DriverAnchor, ManagedDaysAreBitIdenticalToRecordedHashes) {
  struct Anchor {
    DeploySystem system;
    const char* trace;
    const char* result;
    bool keep_records = false;
  };
  const Anchor anchors[] = {
      {DeploySystem::kAmoeba, "0xb4ec6633e501469a",
       "0xd6fdebb9fb19ecab"},
      {DeploySystem::kAmoebaNoM, "0xc9a068c70cc126ae",
       "0xeef0527504a3dd68"},
      {DeploySystem::kAmoebaNoP, "0xf119699dc0eefe4c",
       "0x65875908aaf90144"},
      {DeploySystem::kNameko, "0x76901009113b660e",
       "0x8c0ce9bc996f5e0b"},
      {DeploySystem::kOpenWhisk, "0x8c90e5852c85921a",
       "0x6c7f9d517835876b"},
      // Keeping the records changes neither the trace nor the latencies.
      {DeploySystem::kOpenWhisk, "0x8c90e5852c85921a",
       "0x6c7f9d517835876b", /*keep_records=*/true},
  };
  for (const Anchor& a : anchors) {
    SCOPED_TRACE(to_string(a.system));
    SCOPED_TRACE(a.keep_records ? "keep_records" : "latencies only");
    const auto r =
        run_managed_day(a.system, sim::FaultConfig{}, a.keep_records);
    EXPECT_EQ(r.records.size(), a.keep_records ? r.queries : 0u);
    const bool managed = a.system != DeploySystem::kNameko &&
                         a.system != DeploySystem::kOpenWhisk;
    EXPECT_EQ(r.switches.empty(), !managed);
    EXPECT_EQ(r.timeline.mode.empty(), !managed);
    EXPECT_EQ(hex(r.trace_hash), a.trace) << "trace";
    EXPECT_EQ(hex(managed_result_hash(r)), a.result) << "result";
  }

  const sim::FaultConfig faults = managed_faults();
  const Anchor faulty[] = {
      {DeploySystem::kAmoeba, "0xf063c35210d66aaf", "0x4cb7cc1c3442e01e"},
      {DeploySystem::kNameko, "0x5e09d571e7c3bc1d", "0x26bb3baf3d17bfbf"},
      {DeploySystem::kOpenWhisk, "0xce8149348a10dd2a", "0x1198b5388b5d5836"},
  };
  for (const Anchor& a : faulty) {
    SCOPED_TRACE(std::string("faulty ") + to_string(a.system));
    const auto r = run_managed_day(a.system, faults);
    ASSERT_GT(r.fault_counters.total(), 0u) << "no faults actually injected";
    if (a.system == DeploySystem::kAmoeba) {
      EXPECT_GT(r.switch_aborts, 0u);
      EXPECT_GT(r.switch_retries, 0u);
    }
    if (a.system == DeploySystem::kNameko) {
      EXPECT_GT(r.fault_counters.vm_boot_failures, 0u);
    }
    EXPECT_EQ(hex(r.trace_hash), a.trace) << "faulty trace";
    EXPECT_EQ(hex(managed_result_hash(r)), a.result) << "faulty result";
  }
}

TEST(DriverAnchor, AmoebaOverrideKeepsTheSystemsAblation) {
  // The four tuning ablations hand run_managed a full AmoebaConfig. The
  // system's own ablation (NoM: no PCA, NoP: no prewarm) still applies on
  // top of it: these days equal the anchors above, recorded without one.
  struct Anchor {
    DeploySystem system;
    const char* trace;
    const char* result;
  };
  const Anchor anchors[] = {
      {DeploySystem::kAmoebaNoM, "0xc9a068c70cc126ae", "0xeef0527504a3dd68"},
      {DeploySystem::kAmoebaNoP, "0xf119699dc0eefe4c", "0x65875908aaf90144"},
  };
  const Fixture& f = fix();
  for (const Anchor& a : anchors) {
    SCOPED_TRACE(to_string(a.system));
    ManagedRunOptions opt;
    small_day(opt, 17);
    opt.amoeba = default_amoeba_config(DeploySystem::kAmoeba);
    const auto r = run_managed(f.float_base, a.system, f.cluster,
                               f.calibration, f.float_artifacts, opt);
    EXPECT_EQ(hex(r.trace_hash), a.trace) << "trace";
    EXPECT_EQ(hex(managed_result_hash(r)), a.result) << "result";
  }
}

/// Digest of an exported stream's bytes.
std::string export_hash(const std::string& bytes) {
  Digest d;
  d.text(bytes);
  return hex(d.value());
}

TEST(ObservabilityAnchor, FaultyManagedDayExportsAreBitIdentical) {
  // The faulty Amoeba day above, fully observed: every span, metric
  // snapshot and DecisionRecord of a real run, switch aborts and retries
  // included, pinned byte for byte.
  obs::Observer observer{obs::ObsConfig{}};
  const auto r = run_managed_day(DeploySystem::kAmoeba, managed_faults(),
                                 /*keep_records=*/false, &observer);
  ASSERT_GT(r.switch_aborts, 0u);
  std::ostringstream trace;
  std::ostringstream audit;
  std::ostringstream metrics;
  obs::write_chrome_trace(observer.tracer(), trace);
  obs::write_audit_jsonl(observer.audit(), audit);
  obs::write_metrics_jsonl(observer.metrics(), metrics);
  const std::string t = trace.str();
  EXPECT_NE(t.find("\"switch_abort\""), std::string::npos);
  EXPECT_TRUE(t.find("\"boot_retry\"") != std::string::npos ||
              t.find("\"prewarm_retry\"") != std::string::npos);
  // Observing the day does not perturb it.
  EXPECT_EQ(hex(r.trace_hash), "0xf063c35210d66aaf") << "day";
  EXPECT_EQ(export_hash(t), "0x9d95cd2f10142b71") << "trace";
  EXPECT_EQ(export_hash(audit.str()), "0xb664c7dc9f2fb80e") << "audit";
  EXPECT_EQ(export_hash(metrics.str()), "0xf6949155280b0a8") << "metrics";
}

TEST(ClusterCallGraph, OneStageGraphEqualsOneTenantCluster) {
  // One tenant at phase 0 and a one-stage graph of the same profile with
  // T = its QoS target under the naive split: the same node, the same
  // runtime, the same arrivals. Only the service name differs.
  const Fixture& f = fix();
  for (const auto& base : {f.float_base, f.dd_base}) {
    workload::CallGraph::Builder b;
    b.add_stage("solo", base);
    const workload::CallGraph g = b.build();
    for (const std::uint64_t seed : {1u, 7u, 42u}) {
      SCOPED_TRACE(base.name + " seed=" + std::to_string(seed));
      ClusterRunOptions copt;
      small_day(copt, seed);
      const auto c =
          run_cluster({ClusterServiceSpec{base, f.artifacts_of(base), 0.0}},
                      f.cluster, f.calibration, copt);
      CallGraphRunOptions gopt;
      small_day(gopt, seed);
      gopt.e2e_qos_target_s = base.qos_target_s;
      gopt.budget_mode = BudgetMode::kNaiveEqual;
      const auto r = run_callgraph(g, {f.artifacts_of(base)}, f.cluster,
                                   f.calibration, gopt);
      ASSERT_EQ(c.services.size(), 1u);
      ASSERT_GT(c.services[0].queries, 100u);
      EXPECT_EQ(c.trace_hash, r.trace_hash);
      EXPECT_EQ(c.services[0].latencies.raw(), r.e2e_latencies.raw());
      EXPECT_EQ(c.total_core_hours(), r.total_core_hours());
    }
  }
}

}  // namespace
}  // namespace amoeba::exp
