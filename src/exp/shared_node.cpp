#include "exp/shared_node.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

#include "core/budget_decomposer.hpp"
#include "exp/node_driver.hpp"
#include "workload/meters.hpp"

namespace amoeba::exp {

namespace {

/// Budget renormalization period (aware mode). Matches the default monitor
/// sample period so budgets move at control-loop speed.
constexpr double kRenormPeriodS = 5.0;
/// Observed-p95 window must hold at least this many stage completions
/// before it updates the stage weight (one accidental cold start must not
/// own the window; same rationale as the runtime's 21-sample rule).
constexpr std::size_t kRenormMinSamples = 12;

/// The AmoebaConfig of one stage's runtime: default_amoeba_config(kAmoeba)
/// with tighter switch margins (0.50 out, 0.70 back) and no timeline. The
/// pressure inputs are caused by live co-tenants whose own controllers
/// react in the same tick, so predictions carry more error than against
/// scripted noise — leave earlier, return later.
core::AmoebaConfig stage_config(workload::StagePin pin) {
  core::AmoebaConfig cfg = default_amoeba_config(DeploySystem::kAmoeba);
  cfg.controller.to_serverless_margin = 0.50;
  cfg.controller.to_iaas_margin = 0.70;
  cfg.timeline_period_s = -1.0;
  switch (pin) {
    case workload::StagePin::kManaged:
      break;
    case workload::StagePin::kIaasOnly:
      // Votes can never reach an astronomically large hysteresis
      // threshold, so the stage stays on its just-enough VM for good.
      cfg.controller.hysteresis_ticks = 1 << 20;
      break;
    case workload::StagePin::kServerlessOnly:
      // Bias, not a hard pin: leave for FaaS at the first calibrated
      // opportunity and disable every pull back to IaaS.
      cfg.controller.to_serverless_margin = 1.0;
      cfg.controller.to_iaas_margin = 1.5;
      cfg.controller.observed_violation_fraction = 1e9;
      break;
  }
  return cfg;
}

/// One user query in flight across its flow's DAG, in a reused slot.
struct InFlightQuery {
  std::uint64_t id = 0;              ///< per-flow injection index
  double arrival = 0.0;              ///< root injection time
  int remaining_stages = 0;          ///< stages not yet finished; 0 = free
  std::vector<int> waiting_parents;  ///< per stage, parents still running
};

/// A flow's queries in flight: a slot table with a free list, so a steady
/// day reuses slots (and their waiting_parents capacity) instead of
/// allocating a node per query.
struct FlowQueries {
  std::vector<InFlightQuery> slots;
  std::vector<std::uint32_t> free_slots;

  [[nodiscard]] std::size_t in_flight() const {
    return slots.size() - free_slots.size();
  }
};

/// AND-join dataflow over every flow: a query enters every root of its
/// flow at injection and enters stage k once all parents(k) finished it.
/// The ledger counts every entry and exit so conservation is checkable
/// after the run.
struct QueryRouter {
  const std::vector<NodeFlow>& flows;
  const std::vector<std::size_t>& first_stage;  ///< per flow
  const std::vector<std::unique_ptr<core::AmoebaRuntime>>& runtimes;
  NodeRun& run;
  double warmup_s;
  obs::Observer* observer;
  bool keep_records;
  /// Per stage, completions since the last renorm tick (aware mode only).
  std::vector<stats::SampleSet> renorm_window = {};
  /// Per flow, the queries in flight.
  std::vector<FlowQueries> live = {};

  void inject(std::size_t f, double now) {
    const workload::CallGraph& g = flows[f].graph;
    const std::uint64_t id = run.flows[f].injected++;
    FlowQueries& fq = live[f];
    std::uint32_t slot = 0;
    if (fq.free_slots.empty()) {
      slot = static_cast<std::uint32_t>(fq.slots.size());
      fq.slots.emplace_back();
    } else {
      slot = fq.free_slots.back();
      fq.free_slots.pop_back();
    }
    InFlightQuery& q = fq.slots[slot];
    q.id = id;
    q.arrival = now;
    q.remaining_stages = g.size();
    q.waiting_parents.clear();
    for (int k = 0; k < g.size(); ++k) {
      q.waiting_parents.push_back(static_cast<int>(g.parents(k).size()));
    }
    if (traced(f)) {
      obs::Tracer& tr = observer->tracer();
      tr.async_begin(tr.track(flows[f].e2e_track), "e2e", id, now, "query");
    }
    for (const int r : g.roots()) enter(f, slot, r);
  }

  /// Settle the ledger and close the spans of queries cut off mid-flight,
  /// in id order — bookkeeping only, after the last simulated event.
  void finish(double now) {
    for (std::size_t f = 0; f < flows.size(); ++f) {
      run.flows[f].unfinished = live[f].in_flight();
      if (!traced(f)) continue;
      std::vector<std::uint64_t> ids;
      for (const InFlightQuery& q : live[f].slots) {
        if (q.remaining_stages > 0) ids.push_back(q.id);
      }
      std::sort(ids.begin(), ids.end());
      obs::Tracer& tr = observer->tracer();
      for (const std::uint64_t id : ids) {
        tr.async_end(tr.track(flows[f].e2e_track), "e2e", id, now, "query",
                     {obs::TraceArg::of("outcome", "unfinished")});
      }
    }
  }

  [[nodiscard]] bool traced(std::size_t f) const {
    return observer != nullptr && observer->trace_on() &&
           !flows[f].e2e_track.empty();
  }

  void enter(std::size_t f, std::uint32_t slot, int s) {
    const std::size_t si = first_stage[f] + static_cast<std::size_t>(s);
    ++run.stages[si].submitted;
    // Flow and stage packed into one word: with the router pointer and the
    // slot the capture is 16 bytes, inside std::function's inline buffer.
    const auto flow_stage =
        static_cast<std::uint32_t>(f << 16U) | static_cast<std::uint32_t>(s);
    runtimes[si]->submit(
        [this, flow_stage, slot](const workload::QueryRecord& rec) {
          on_stage_done(flow_stage >> 16U, slot,
                        static_cast<int>(flow_stage & 0xffffU), rec);
        });
  }

  void on_stage_done(std::size_t f, std::uint32_t slot, int s,
                     const workload::QueryRecord& rec) {
    FlowQueries& fq = live[f];
    AMOEBA_INVARIANT_MSG(
        slot < fq.slots.size() && fq.slots[slot].remaining_stages > 0,
        "stage completion for a query that is not in flight");
    InFlightQuery& q = fq.slots[slot];
    const std::size_t si = first_stage[f] + static_cast<std::size_t>(s);
    StageRun& st = run.stages[si];
    ++st.finished;
    if (q.arrival >= warmup_s) {
      st.latencies.add(rec.latency());
      if (keep_records) st.records.push_back(rec);
    }
    if (!renorm_window.empty()) renorm_window[si].add(rec.latency());
    for (const int c : flows[f].graph.children(s)) {
      const auto ci = static_cast<std::size_t>(c);
      AMOEBA_INVARIANT(q.waiting_parents[ci] > 0);
      if (--q.waiting_parents[ci] == 0) enter(f, slot, c);
    }
    if (--q.remaining_stages == 0) {
      const double e2e = rec.completion - q.arrival;
      FlowRun& fr = run.flows[f];
      ++fr.completed;
      if (q.arrival >= warmup_s) fr.e2e_latencies.add(e2e);
      if (traced(f)) {
        obs::Tracer& tr = observer->tracer();
        tr.async_end(tr.track(flows[f].e2e_track), "e2e", q.id,
                     rec.completion, "query",
                     {obs::TraceArg::of("latency_s", e2e)});
      }
      fq.free_slots.push_back(slot);
    }
  }
};

}  // namespace

SimNode::SimNode(const ClusterConfig& cluster, const DayOptions& options)
    : day(options),
      duration_s(options.warmup_s + options.period_s * options.duration_days),
      load_start_s(std::min(cluster.iaas.vm_boot_s + 2.0,
                            std::max(options.warmup_s - 1.0, 0.0))),
      prof_attach(options.profiler),
      rng(options.seed),
      sp(engine, cluster.serverless, rng.fork(1)),
      ip(engine, cluster.iaas, rng.fork(2)) {
  AMOEBA_EXPECTS(day.period_s > 0.0 && day.duration_days > 0.0);
  AMOEBA_EXPECTS_MSG(day.warmup_s >= cluster.iaas.vm_boot_s + 3.0,
                     "warmup must cover the VM boot time");
  if (day.profiler != nullptr) engine.set_profiler(day.profiler);
  if (day.faults.any()) {
    faults = std::make_unique<sim::FaultInjector>(day.faults, rng.fork(4));
    sp.set_fault_injector(faults.get());
    ip.set_fault_injector(faults.get());
  }
}

core::AmoebaRuntime& SimNode::start_runtime(
    core::AmoebaConfig cfg, const core::MeterCalibration& calibration,
    const workload::FunctionProfile& profile, const iaas::VmSpec& vm,
    const core::ServiceArtifacts& artifacts, int n_max, std::uint64_t fork) {
  cfg.observer = day.observer;
  cfg.fault_injector = faults.get();
  sp.set_observer(day.observer);
  runtimes.push_back(std::make_unique<core::AmoebaRuntime>(
      engine, sp, ip, calibration, profile, vm, artifacts, n_max, cfg,
      rng.fork(fork)));
  runtimes.back()->start();
  return *runtimes.back();
}

void SimNode::add_stream(const workload::FunctionProfile& profile,
                         double phase, std::uint64_t noise_salt,
                         std::uint64_t fork, workload::ArrivalFn on_arrival,
                         bool start_now) {
  auto& trace = traces_.emplace_back(std::make_unique<workload::DiurnalTrace>(
      diurnal_for(profile, day.period_s, phase), day.seed ^ noise_salt));
  auto& gen = generators_.emplace_back(
      std::make_unique<workload::PoissonLoadGenerator>(
          engine, rng.fork(fork), *trace, std::move(on_arrival)));
  if (start_now) {
    gen->start();
  } else {
    engine.schedule(load_start_s, [g = gen.get()] { g->start(); });
  }
}

void SimNode::run_day(NodeRunResult& r) {
  engine.run_until(duration_s);
  for (auto& gen : generators_) gen->stop();
  for (auto& rt : runtimes) rt->stop();
  r.duration_s = duration_s;
  if (faults) r.fault_counters = faults->counters();
  r.trace_hash = engine.trace_hash();
  r.events_executed = engine.executed();
}

const char* to_string(BudgetMode m) noexcept {
  switch (m) {
    case BudgetMode::kNaiveEqual: return "naive_equal";
    case BudgetMode::kEndToEndAware: return "e2e_aware";
  }
  return "?";
}

int n_max_for(const iaas::VmSpec& vm) {
  return std::max(1, static_cast<int>(std::ceil(vm.cores)));
}

double SharedNodeResult::core_hours_with(
    const core::ServiceUsage& stages) const {
  return (stages.cpu_core_seconds + meter_usage.cpu_core_seconds) / 3600.0;
}

double SharedNodeResult::memory_gb_hours_with(
    const core::ServiceUsage& stages) const {
  return (stages.memory_mb_seconds + meter_usage.memory_mb_seconds) /
         (1024.0 * 3600.0);
}

NodeRun run_shared_node(const std::vector<NodeFlow>& flows,
                        const ClusterConfig& cluster,
                        const core::MeterCalibration& calibration,
                        const SharedNodeOptions& opt, BudgetMode budget_mode,
                        bool keep_records) {
  AMOEBA_EXPECTS(opt.node_container_budget > 0);
  AMOEBA_EXPECTS(opt.meter_reserve_containers >= 3);

  SimNode node(cluster, opt);
  sim::Engine& engine = node.engine;

  // Meter reserve: register the three meter functions FIRST, each capped at
  // its share of the reserve, so (a) every monitor's start() finds them
  // already present, and (b) stage prewarms can never evict probing down
  // to zero capacity. Count-wise the node budget stays intact: stages
  // split what remains.
  const int per_meter = std::max(1, opt.meter_reserve_containers / 3);
  std::vector<serverless::FunctionId> meters;
  for (const auto kind : workload::kAllMeters) {
    meters.push_back(
        node.sp.register_function(workload::meter_profile(kind), per_meter));
  }
  std::vector<std::size_t> first_stage;
  std::size_t n = 0;
  // The router packs a flow and a stage into 16 bits each.
  AMOEBA_EXPECTS(flows.size() <= 0xffffU);
  for (const NodeFlow& flow : flows) {
    AMOEBA_EXPECTS(flow.stages.size() ==
                   static_cast<std::size_t>(flow.graph.size()));
    AMOEBA_EXPECTS(flow.graph.size() <= 0xffff);
    first_stage.push_back(n);
    n += flow.stages.size();
  }
  AMOEBA_EXPECTS_MSG(
      opt.node_container_budget - 3 * per_meter >= static_cast<int>(n),
      "container budget cannot cover every service");

  // --- Budgets, sizing and shared-pool admission arbitration -------------
  // Initial weights are the content-determined ideal solo IaaS latencies
  // (what the decomposer would converge to on an uncontended node). Every
  // query crosses every stage of its flow, so each stage is provisioned
  // for the flow's root peak and its applied budget.
  NodeRun run;
  run.stages.resize(n);
  run.flows.resize(flows.size());
  std::vector<core::BudgetDecomposer> decomposers;
  std::vector<double> floors;
  std::vector<workload::FunctionProfile> profiles;
  std::vector<iaas::VmSpec> vm_specs;
  std::vector<int> asks;
  decomposers.reserve(flows.size());
  for (const NodeFlow& flow : flows) {
    const workload::CallGraph& g = flow.graph;
    const double t_e2e = flow.e2e_qos_target_s;
    std::vector<double> w0;
    for (int k = 0; k < g.size(); ++k) {
      const double ideal = g.stage(k).profile.ideal_iaas_latency(
          cluster.iaas.disk_bps, cluster.iaas.net_bps);
      w0.push_back(std::max(ideal, core::BudgetDecomposer::kMinWeightS));
      floors.push_back(std::min(kFeasibilityFloorFactor * ideal, t_e2e));
    }
    decomposers.emplace_back(g, t_e2e, w0);
    const std::vector<double> raw0 =
        budget_mode == BudgetMode::kEndToEndAware
            ? decomposers.back().budgets()
            : core::BudgetDecomposer::equal_split(g, t_e2e);
    for (int k = 0; k < g.size(); ++k) {
      const std::size_t si = profiles.size();
      StageRun& st = run.stages[si];
      st.name = flow.stages[static_cast<std::size_t>(k)].name;
      st.initial_budget_s = std::clamp(raw0[static_cast<std::size_t>(k)],
                                       floors[si], t_e2e);
      st.final_budget_s = st.initial_budget_s;
      workload::FunctionProfile p = g.stage(k).profile;
      p.name = st.name;
      p.peak_load_qps = flow.root_peak_qps;
      p.qos_target_s = st.initial_budget_s;
      vm_specs.push_back(just_enough_vm(p, cluster));
      st.n_max_asked = n_max_for(vm_specs.back());
      asks.push_back(st.n_max_asked);
      profiles.push_back(std::move(p));
    }
  }
  const std::vector<int> grants = core::split_container_budget(
      asks, opt.node_container_budget - 3 * per_meter);

  // --- One AmoebaRuntime per stage ----------------------------------------
  // Its own monitor, controller and engine, all over the same two
  // platforms.
  // Per-monitor probe rate: N monitors each probing 3 meters must not
  // themselves crowd the node, so the combined rate across monitors is
  // capped at ~4 QPS per meter regardless of N.
  const double probe_qps =
      std::min(workload::kMeterProbeQps, 4.0 / static_cast<double>(n));
  for (std::size_t f = 0; f < flows.size(); ++f) {
    for (int k = 0; k < flows[f].graph.size(); ++k) {
      const FlowStage& fs = flows[f].stages[static_cast<std::size_t>(k)];
      const std::size_t si = first_stage[f] + static_cast<std::size_t>(k);
      core::AmoebaConfig cfg = stage_config(flows[f].graph.stage(k).pin);
      cfg.monitor.probe_qps = probe_qps;
      cfg.stage_id = fs.audit_stage;
      run.stages[si].n_max_granted = grants[si];
      node.start_runtime(cfg, calibration, profiles[si], vm_specs[si],
                         *fs.artifacts, grants[si], 1000 + si);
    }
  }

  const bool aware = budget_mode == BudgetMode::kEndToEndAware;
  QueryRouter router{flows, first_stage, node.runtimes, run, opt.warmup_s,
                     opt.observer, keep_records};
  router.live.resize(flows.size());
  if (aware) router.renorm_window.resize(n);

  // --- Budget renormalization tick (aware mode only) ----------------------
  // Observed per-stage p95s fold into each flow's decomposer; changed
  // budgets reach the stage's controller via set_qos_target, so a slow
  // downstream stage tightens upstream budgets.
  sim::EventId renorm_event = sim::kNoEvent;
  std::function<void()> renorm = [&] {
    for (std::size_t f = 0; f < flows.size(); ++f) {
      const workload::CallGraph& g = flows[f].graph;
      for (int k = 0; k < g.size(); ++k) {
        stats::SampleSet& window =
            router.renorm_window[first_stage[f] + static_cast<std::size_t>(k)];
        if (window.size() >= kRenormMinSamples) {
          decomposers[f].observe(k, window.quantile(0.95));
          window.clear();
        }
      }
      const std::vector<double> b = decomposers[f].budgets();
      for (int k = 0; k < g.size(); ++k) {
        const std::size_t si = first_stage[f] + static_cast<std::size_t>(k);
        const double target =
            std::clamp(b[static_cast<std::size_t>(k)], floors[si],
                       flows[f].e2e_qos_target_s);
        if (target != run.stages[si].final_budget_s) {
          node.runtimes[si]->set_qos_target(target);
          run.stages[si].final_budget_s = target;
        }
      }
    }
    renorm_event = engine.schedule_in(kRenormPeriodS, renorm);
  };
  if (aware) renorm_event = engine.schedule_in(kRenormPeriodS, renorm);

  // --- Load: one Poisson stream at each flow's roots ----------------------
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const std::size_t root =
        first_stage[f] +
        static_cast<std::size_t>(flows[f].graph.roots().front());
    node.add_stream(profiles[root], flows[f].phase, 0x51u + f, 2000 + f,
                    [&router, &engine, f] { router.inject(f, engine.now()); });
  }

  node.run_day(run);
  if (renorm_event != sim::kNoEvent) engine.cancel(renorm_event);
  router.finish(engine.now());

  // --- Collection ---------------------------------------------------------
  const double duration = node.duration_s;
  for (std::size_t si = 0; si < n; ++si) {
    StageRun& st = run.stages[si];
    core::AmoebaRuntime& rt = *node.runtimes[si];
    st.usage = rt.usage(duration);
    st.switches = rt.switch_events();
    st.switch_aborts = rt.execution_engine().switch_aborts();
    st.switch_retries = rt.execution_engine().switch_retries();
    st.prewarm_denied =
        node.sp.stats(rt.execution_engine().function()).prewarm_denied;
    run.stages_usage += st.usage;
    run.prewarm_denied_total += st.prewarm_denied;
  }
  for (const serverless::FunctionId meter : meters) {
    run.meter_usage.cpu_core_seconds += node.sp.cpu_core_seconds(meter);
    run.meter_usage.memory_mb_seconds +=
        node.sp.memory_mb_seconds(meter, duration);
  }
  // Summed in registration order; only conservation bounds read it.
  for (std::size_t i = 0; i < node.sp.function_count(); ++i) {
    run.pool_memory_mb_seconds += node.sp.memory_mb_seconds(
        static_cast<serverless::FunctionId>(i), duration);
  }
  run.peak_pool_containers = node.sp.pool().peak_total_containers();
  run.peak_pool_memory_mb = node.sp.pool().peak_memory_in_use_mb();
  run.pool_evictions = node.sp.pool().evictions();
  for (const FlowRun& fr : run.flows) {
    AMOEBA_ENSURES_VALS(fr.injected == fr.completed + fr.unfinished,
                        fr.injected, fr.completed, fr.unfinished);
  }
  return run;
}

}  // namespace amoeba::exp
