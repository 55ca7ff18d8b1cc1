// Fig. 18 (extension): end-to-end QoS decomposition over a call graph.
//
// The paper manages each microservice against its own latency target; real
// products carry ONE end-to-end SLO across a DAG of stages. This bench
// runs a four-stage diamond — front -> {search (heavy), ads} -> render —
// under exp::run_callgraph twice: once with the naive fixed equal split
// (every stage gets T / max_path_stages) and once with the end-to-end
// aware decomposition (critical-path-weighted budgets, renormalized from
// observed per-stage p95s). The heavy search stage owns most of the
// latency, so the equal split over-tightens it — forcing a larger
// just-enough VM and pinning it to IaaS — while the aware split hands it
// the budget it needs and lets it ride serverless through the trough.
//
// Gates (nonzero exit on failure):
//   1. Determinism: each mode runs twice under one seed; traces must hash
//      identically.
//   2. QoS: the aware run's end-to-end p95 meets the SLO.
//   3. Economy: the aware run's core-hours are no worse than the naive
//      run's.
//   4. Dominance: the naive run violates the SLO, or the aware run is
//      strictly cheaper — otherwise decomposition bought nothing.
//   5. Instrumentation purity: an observer(+profiler)-attached rerun of
//      the aware mode executes the identical trace; with --profile-out the
//      profiler must attribute >= 90% of the rerun's wall time.
//
// Flags: --jobs N, --smoke (CI: short day), --json-out PATH, plus the
// shared observability export flags.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "exp/callgraph.hpp"

int main(int argc, char** argv) {
  using namespace amoeba;
  const unsigned jobs = exp::parse_jobs_flag(argc, argv);
  const bench::BenchFlags flags = bench::parse_bench_flags(argc, argv);
  bench::BenchObservability observability(argc, argv);
  const auto cluster = exp::default_cluster();
  const auto prof = bench::bench_profiling();
  exp::print_banner(std::cout, "Fig. 18",
                    "call-graph end-to-end QoS decomposition");

  const auto cal = exp::profile_meters(cluster, prof);
  const auto float_base = workload::make_float();
  const auto matmul_base = workload::make_matmul();
  const auto float_artifacts =
      exp::profile_service(float_base, cluster, cal, prof);
  const auto matmul_artifacts =
      exp::profile_service(matmul_base, cluster, cal, prof);

  // The diamond: a light front fans out to the heavy search stage and a
  // light ads stage; both join at a light render stage. Every stage sees
  // the root arrival rate (one invocation per query per stage), so the
  // peak is pinned to what the heavy matmul stage can sustain.
  const double root_peak_qps = 12.0;
  const double peak_fraction = root_peak_qps / matmul_base.peak_load_qps;
  workload::CallGraph::Builder b;
  const int front =
      b.add_stage("front", workload::as_tenant(float_base, 0, peak_fraction));
  const int search =
      b.add_stage("search", workload::as_tenant(matmul_base, 1, peak_fraction));
  const int ads =
      b.add_stage("ads", workload::as_tenant(float_base, 2, peak_fraction));
  const int render =
      b.add_stage("render", workload::as_tenant(float_base, 3, peak_fraction));
  b.add_edge(front, search);
  b.add_edge(front, ads);
  b.add_edge(search, render);
  b.add_edge(ads, render);
  const workload::CallGraph graph = b.build();

  std::vector<core::ServiceArtifacts> artifacts;
  artifacts.reserve(static_cast<std::size_t>(graph.size()));
  for (int k = 0; k < graph.size(); ++k) {
    const bool heavy =
        graph.stage(k).profile.name.rfind(matmul_base.name, 0) == 0;
    artifacts.push_back(heavy ? matmul_artifacts : float_artifacts);
  }

  // End-to-end SLO: 85% of the summed per-stage targets along the heavy
  // path. Tight enough that an equal split over-tightens the heavy stage
  // (its third of T sits well below its own solo target), loose enough
  // that the critical-path-weighted split is comfortably feasible.
  const double e2e_target_s =
      0.85 * (float_base.qos_target_s + matmul_base.qos_target_s +
              float_base.qos_target_s);

  const double period_s = flags.smoke ? 600.0 : 1800.0;
  auto options = [&](exp::BudgetMode mode) {
    exp::CallGraphRunOptions opt;
    opt.period_s = period_s;
    opt.duration_days = 1.0;
    opt.warmup_s = 60.0;
    opt.e2e_qos_target_s = e2e_target_s;
    opt.budget_mode = mode;
    opt.root_peak_qps = root_peak_qps;
    opt.seed = cluster.seed;
    return opt;
  };

  struct ModeResult {
    exp::CallGraphRunResult run;
    bool deterministic = false;
  };
  const std::vector<exp::BudgetMode> modes = {exp::BudgetMode::kNaiveEqual,
                                              exp::BudgetMode::kEndToEndAware};
  const auto runs = exp::parallel_map<ModeResult>(
      modes.size(), jobs, [&](std::size_t i) {
        const exp::BudgetMode mode = modes[i];
        auto a = exp::run_callgraph(graph, artifacts, cluster, cal,
                                    options(mode));
        const auto rerun = exp::run_callgraph(graph, artifacts, cluster, cal,
                                              options(mode));
        const bool same = a.trace_hash == rerun.trace_hash;
        return ModeResult{std::move(a), same};
      });
  const auto& naive = runs[0].run;
  const auto& aware = runs[1].run;

  bench::BenchJson json;
  json.add("period_s", period_s);
  json.add("e2e_qos_target_s", e2e_target_s);
  json.add("n_stages", static_cast<double>(graph.size()));
  bool ok = true;

  for (const auto& mr : runs) {
    const auto& r = mr.run;
    const std::string mode = exp::to_string(r.budget_mode);
    std::cout << "\n=== budget mode: " << mode << " ===\n";
    exp::callgraph_table(r).print(std::cout);
    std::cout << "e2e p95 " << exp::fmt_fixed(r.e2e_p95(), 3) << " s (SLO "
              << exp::fmt_fixed(e2e_target_s, 3) << " s), violations "
              << exp::fmt_percent(r.e2e_violation_fraction()) << ", "
              << exp::fmt_fixed(r.total_core_hours(), 2) << " core-h, "
              << r.queries_completed << "/" << r.root_injected
              << " queries completed\n";

    // Gate 1: same-seed double runs hash identically, per mode.
    if (!mr.deterministic) {
      std::cerr << "FAIL[" << mode << "]: same-seed runs diverged\n";
      ok = false;
    }
    json.add(mode + "_e2e_p95_s", r.e2e_p95());
    json.add(mode + "_violation_fraction", r.e2e_violation_fraction());
    json.add(mode + "_core_hours", r.total_core_hours());
    json.add(mode + "_memory_gb_hours", r.total_memory_gb_hours());
    json.add(mode + "_deterministic", mr.deterministic);
  }

  // Gate 2: the aware split meets the end-to-end SLO.
  if (aware.e2e_p95() > e2e_target_s) {
    std::cerr << "FAIL: e2e-aware p95 " << exp::fmt_fixed(aware.e2e_p95(), 3)
              << " s misses the SLO " << exp::fmt_fixed(e2e_target_s, 3)
              << " s\n";
    ok = false;
  }
  // Gate 3: decomposition never costs extra cores.
  if (aware.total_core_hours() > naive.total_core_hours()) {
    std::cerr << "FAIL: e2e-aware core-hours "
              << exp::fmt_fixed(aware.total_core_hours(), 2)
              << " exceed naive "
              << exp::fmt_fixed(naive.total_core_hours(), 2) << "\n";
    ok = false;
  }
  // Gate 4: dominance — the naive split must either violate the SLO or
  // cost strictly more; otherwise the decomposition bought nothing.
  const bool naive_violates = naive.e2e_p95() > e2e_target_s;
  const bool aware_cheaper =
      aware.total_core_hours() < naive.total_core_hours();
  if (!naive_violates && !aware_cheaper) {
    std::cerr << "FAIL: naive meets the SLO at no extra cost — the aware"
                 " decomposition shows no advantage\n";
    ok = false;
  }
  json.add("naive_violates_slo", naive_violates);
  json.add("aware_cheaper", aware_cheaper);

  // Gate 5: instrumented rerun of the aware mode — observability must not
  // move a single event.
  {
    auto opt = options(exp::BudgetMode::kEndToEndAware);
    opt.observer = observability.begin_run();
    opt.profiler = observability.profiler();
    const auto t0 = std::chrono::steady_clock::now();
    const auto repeat =
        exp::run_callgraph(graph, artifacts, cluster, cal, opt);
    const double run_wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (opt.profiler != nullptr) {
      const auto profile = opt.profiler->report();
      const double coverage =
          run_wall_s > 0.0 ? profile.attributed_s() / run_wall_s : 0.0;
      std::cout << "\nself-profile: attributed "
                << exp::fmt_fixed(profile.attributed_s(), 3) << " s of "
                << exp::fmt_fixed(run_wall_s, 3) << " s run wall ("
                << exp::fmt_percent(coverage) << ")\n";
      json.add("profile_coverage", coverage);
      if (coverage < 0.90) {
        std::cerr << "FAIL: self-profile attributes "
                  << exp::fmt_percent(coverage)
                  << " of run wall time (gate: >= 90%)\n";
        ok = false;
      }
    }
    observability.end_run("fig18_aware");
    const bool same = repeat.trace_hash == aware.trace_hash;
    std::cout << "\ndeterminism: instrumented same-seed rerun "
              << (same ? "matches" : "MISMATCHES") << " (" << std::hex
              << aware.trace_hash << std::dec << ")\n";
    json.add("instrumented_deterministic", same);
    if (!same) {
      std::cerr << "FAIL: instrumented same-seed rerun diverged\n";
      ok = false;
    }
  }

  std::cout << "\nexpected: the equal split starves the heavy search stage"
               " (SLO violation or extra rented cores); the end-to-end"
               " aware split meets the SLO at no worse cost, and every"
               " same-seed rerun hashes identically.\n";
  if (!flags.json_out.empty() && !json.write(flags.json_out)) return 1;
  return ok ? 0 : 1;
}
