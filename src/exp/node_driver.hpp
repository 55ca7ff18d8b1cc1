// Internal to exp/: the one simulated day every driver runs (SimNode) and
// the shared-node driver behind run_cluster and run_callgraph (see
// shared_node.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exp/shared_node.hpp"
#include "obs/profiler.hpp"
#include "workload/call_graph.hpp"

namespace amoeba::exp {

/// The node every driver runs on (Table II) and the one day it simulates:
/// SimNode sets the day up, runs it and ends it; a driver adds only its
/// tenants. Declaration order is construction order: the profiler attaches
/// to the calling thread and the harness scope opens before the engine
/// exists, so both outlive it. The platforms draw rng forks 1 and 2; any
/// nonzero fault rate adds one injector on fork 4, wired into both
/// platforms and every runtime. A fault-free config creates no injector and
/// stays byte-identical to a build without the fault layer. Streams and
/// runtimes start in the order they are added, which fixes the event
/// trace.
struct SimNode {
  SimNode(const ClusterConfig& cluster, const DayOptions& options);
  SimNode(const SimNode&) = delete;
  SimNode& operator=(const SimNode&) = delete;

  /// Starts one managed service on the node, its runtime drawing rng fork
  /// `fork`, with the day's observer and fault injector wired into `cfg`.
  /// The serverless platform gets the day's observer here too, so a pure
  /// baseline, which starts no runtime, leaves its platform unobserved.
  core::AmoebaRuntime& start_runtime(core::AmoebaConfig cfg,
                                     const core::MeterCalibration& calibration,
                                     const workload::FunctionProfile& profile,
                                     const iaas::VmSpec& vm,
                                     const core::ServiceArtifacts& artifacts,
                                     int n_max, std::uint64_t fork);

  /// Adds `profile`'s diurnal Poisson stream at `phase`: trace noise seeded
  /// with seed ^ `noise_salt`, arrivals drawn on rng fork `fork`. It starts
  /// at load_start_s, or right away when `start_now` (a tenant that needs
  /// no VM).
  void add_stream(const workload::FunctionProfile& profile, double phase,
                  std::uint64_t noise_salt, std::uint64_t fork,
                  workload::ArrivalFn on_arrival, bool start_now = false);

  /// Runs to the end of the day, stops every stream and runtime, and
  /// reports the day's duration, fault tallies, trace hash and
  /// executed-event count into `r`.
  void run_day(NodeRunResult& r);

  const DayOptions& day;
  /// Warm-up + period × days.
  const double duration_s;
  /// When the load starts: after the IaaS VMs could have booted, inside
  /// warm-up, so no query arrives before its platform exists.
  const double load_start_s;
  obs::ProfilerAttach prof_attach;
  obs::ProfScope harness{obs::ProfDomain::kHarness};
  sim::Engine engine;
  sim::Rng rng;
  serverless::ServerlessPlatform sp;
  iaas::IaasPlatform ip;
  std::unique_ptr<sim::FaultInjector> faults;
  std::vector<std::unique_ptr<core::AmoebaRuntime>> runtimes;

 private:
  std::vector<std::unique_ptr<workload::DiurnalTrace>> traces_;
  std::vector<std::unique_ptr<workload::PoissonLoadGenerator>> generators_;
};

/// Applied per-stage budgets are clamped to at least this factor times the
/// stage's ideal solo IaaS latency (M/M/c feasibility floor), never above
/// the flow's whole target.
inline constexpr double kFeasibilityFloorFactor = 1.25;

/// Per-service container limit (paper §IV-A's n_max): the just-enough VM's
/// cores, at least 1. The service may not consume more of the shared pool
/// than it would rent on IaaS, which keeps the discriminant honest about
/// the serverless peak capacity (and bounds worst-case memory).
[[nodiscard]] int n_max_for(const iaas::VmSpec& vm);

/// One stage of a flow as the node hosts it.
struct FlowStage {
  std::string name;      ///< service name on the node
  int audit_stage = -1;  ///< AmoebaConfig::stage_id (-1: a lone tenant)
  const core::ServiceArtifacts* artifacts = nullptr;  ///< non-owning
};

/// One query flow: user queries enter every root of `graph` and propagate
/// along its edges.
struct NodeFlow {
  workload::CallGraph graph;
  std::vector<FlowStage> stages;  ///< canonical stage order
  double e2e_qos_target_s = 0.0;
  /// Peak arrival rate at the roots. Every stage sees this traffic (one
  /// invocation per query per stage), so per-stage provisioning uses it.
  double root_peak_qps = 0.0;
  double phase = 0.0;  ///< diurnal phase of the root stream, in [0, 1)
  /// Tracer track of the end-to-end query spans; empty = none (a lone
  /// tenant's query span is its runtime's own).
  std::string e2e_track;
};

/// One stage's outcome.
struct StageRun : StageResultBase {
  double initial_budget_s = 0.0;  ///< applied at setup (after clamping)
  double final_budget_s = 0.0;    ///< applied after the last renorm tick
  std::uint64_t submitted = 0;    ///< queries entering the stage (all)
  std::uint64_t finished = 0;     ///< stage completions (all)
  std::vector<core::SwitchEvent> switches;
  std::vector<workload::QueryRecord> records;  ///< if keep_records
};

/// One flow's query ledger: every injected query is either fully completed
/// (every stage finished it exactly once) or still in flight at the
/// cut-off, exactly.
struct FlowRun {
  stats::SampleSet e2e_latencies;  ///< root-to-last-leaf, post-warmup
  std::uint64_t injected = 0;
  std::uint64_t completed = 0;
  std::uint64_t unfinished = 0;
};

struct NodeRun : SharedNodeResult {
  std::vector<StageRun> stages;  ///< every flow's stages, flow-major
  std::vector<FlowRun> flows;
  core::ServiceUsage stages_usage;  ///< Σ per-stage usage
};

/// Run every flow concurrently on one shared node. `budget_mode` splits
/// every flow's target into stage budgets; `keep_records` keeps each
/// stage's post-warmup QueryRecords. No stage samples a timeline.
[[nodiscard]] NodeRun run_shared_node(
    const std::vector<NodeFlow>& flows, const ClusterConfig& cluster,
    const core::MeterCalibration& calibration, const SharedNodeOptions& opt,
    BudgetMode budget_mode, bool keep_records);

}  // namespace amoeba::exp
