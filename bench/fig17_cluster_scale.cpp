// Fig. 17 (extension): cluster-scale managed multi-tenancy.
//
// The paper's §VII-A testbed hosts many microservices on one serverless
// node; its published figures, however, only measure one managed
// foreground service at a time. This bench sweeps N ∈ {2, 4, 8, 12}
// concurrently *managed* tenants — each with its own Amoeba control loop —
// on one shared node (exp::run_cluster), and gates three properties:
//
//   1. Determinism: every N runs twice under one seed; the executed event
//      traces must hash identically.
//   2. QoS under coupling: each tenant's violation fraction stays within
//      2x its single-service run_managed baseline (floor 2% — a baseline
//      of exactly zero would make any violation an automatic failure).
//   3. Economy: total rented/consumed core-hours stay strictly below the
//      all-Nameko baseline (every tenant renting its just-enough VM for
//      the whole day).
//
// Nonzero exit when any gate fails.
//
// Flags: --jobs N (parallel sweep), --smoke (CI: N ∈ {2, 4}, short day),
//        --json-out PATH (machine-readable summary),
//        plus the shared observability export flags. With --profile-out the
//        final max-N rerun also self-profiles the simulator (per-domain,
//        sim-time-bucketed wall-time attribution) and gates that the
//        profiler attributes >= 90% of the measured run wall time.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "exp/cluster.hpp"

int main(int argc, char** argv) {
  using namespace amoeba;
  const unsigned jobs = exp::parse_jobs_flag(argc, argv);
  const bench::BenchFlags flags = bench::parse_bench_flags(argc, argv);
  bench::BenchObservability observability(argc, argv);
  const auto cluster = exp::default_cluster();
  const auto prof = bench::bench_profiling();
  exp::print_banner(std::cout, "Fig. 17",
                    "cluster-scale managed multi-tenancy");

  const auto cal = exp::profile_meters(cluster, prof);

  // Artifacts are profiled once per *base* benchmark at its full peak; the
  // scaled tenant clones reuse them (latency surfaces are functions of
  // absolute pressure and load, so a clone at half peak simply stays on
  // the lower part of the same surface).
  const double peak_fraction = 0.5;
  const auto suite = workload::functionbench_suite();
  std::vector<core::ServiceArtifacts> base_artifacts;
  base_artifacts.reserve(suite.size());
  for (const auto& base : suite) {
    base_artifacts.push_back(exp::profile_service(base, cluster, cal, prof));
  }

  const double period_s = flags.smoke ? 600.0 : 1800.0;
  const std::vector<int> sweep_n = flags.smoke
                                       ? std::vector<int>{2, 4}
                                       : std::vector<int>{2, 4, 8, 12};
  const int max_n = sweep_n.back();

  // Single-service baselines: each distinct tenant profile (base benchmark
  // at the scaled peak) managed alone by run_managed, default scenario.
  const auto tenant_profiles = exp::cluster_tenants(max_n, peak_fraction);
  const std::size_t n_bases = std::min(suite.size(), tenant_profiles.size());
  const auto baselines = exp::parallel_map<exp::ManagedRunResult>(
      n_bases, jobs, [&](std::size_t i) {
        exp::ManagedRunOptions opt;
        opt.period_s = period_s;
        opt.duration_days = 1.0;
        opt.warmup_s = 60.0;
        opt.seed = cluster.seed;
        return exp::run_managed(tenant_profiles[i],
                                exp::DeploySystem::kAmoeba, cluster, cal,
                                base_artifacts[i], opt);
      });

  struct NResult {
    exp::ClusterRunResult run;
    bool deterministic = false;
  };
  const auto cluster_runs = exp::parallel_map<NResult>(
      sweep_n.size(), jobs, [&](std::size_t ni) {
        const int n = sweep_n[ni];
        const auto profiles = exp::cluster_tenants(n, peak_fraction);
        std::vector<exp::ClusterServiceSpec> specs;
        specs.reserve(profiles.size());
        for (std::size_t i = 0; i < profiles.size(); ++i) {
          specs.push_back(exp::ClusterServiceSpec{
              profiles[i], base_artifacts[i % base_artifacts.size()],
              static_cast<double>(i) / static_cast<double>(n)});
        }
        exp::ClusterRunOptions opt;
        opt.period_s = period_s;
        opt.duration_days = 1.0;
        opt.warmup_s = 60.0;
        opt.seed = cluster.seed;
        auto a = exp::run_cluster(specs, cluster, cal, opt);
        const auto b = exp::run_cluster(specs, cluster, cal, opt);
        const bool same = a.trace_hash == b.trace_hash;
        return NResult{std::move(a), same};
      });

  bench::BenchJson json;
  json.add("peak_fraction", peak_fraction);
  json.add("period_s", period_s);
  bool ok = true;

  for (std::size_t ni = 0; ni < sweep_n.size(); ++ni) {
    const int n = sweep_n[ni];
    const auto& r = cluster_runs[ni].run;
    std::cout << "\n=== N = " << n << " managed services ===\n";
    exp::cluster_table(r).print(std::cout);

    // Gate 1: the same-seed double run hashed identically.
    if (!cluster_runs[ni].deterministic) {
      std::cerr << "FAIL[N=" << n
                << "]: same-seed cluster runs diverged\n";
      ok = false;
    }

    // Gate 2: per-tenant QoS within 2x its solo baseline (2% floor).
    for (std::size_t i = 0; i < r.services.size(); ++i) {
      const auto& svc = r.services[i];
      const auto& base = baselines[i % n_bases];
      const double limit =
          std::max(2.0 * base.violation_fraction(), 0.02);
      if (svc.violation_fraction() > limit) {
        std::cerr << "FAIL[N=" << n << "]: " << svc.name << " violations "
                  << exp::fmt_percent(svc.violation_fraction())
                  << " exceed limit " << exp::fmt_percent(limit)
                  << " (solo baseline "
                  << exp::fmt_percent(base.violation_fraction()) << ")\n";
        ok = false;
      }
    }

    // Gate 3: cheaper than all-Nameko (every tenant renting its VM all day).
    double nameko_core_hours = 0.0;
    const auto profiles = exp::cluster_tenants(n, peak_fraction);
    for (const auto& p : profiles) {
      nameko_core_hours +=
          exp::just_enough_vm(p, cluster).cores * r.duration_s / 3600.0;
    }
    const double core_hours = r.total_core_hours();
    std::cout << "total: " << exp::fmt_fixed(core_hours, 2)
              << " core-h (all-Nameko "
              << exp::fmt_fixed(nameko_core_hours, 2) << " core-h), "
              << exp::fmt_fixed(r.total_memory_gb_hours(), 2)
              << " GB-h, peak pool " << r.peak_pool_containers
              << " containers, " << r.prewarm_denied_total
              << " prewarms denied\n";
    if (core_hours >= nameko_core_hours) {
      std::cerr << "FAIL[N=" << n
                << "]: cluster core-hours not below the all-Nameko"
                   " baseline\n";
      ok = false;
    }

    const std::string prefix = "n" + std::to_string(n) + "_";
    json.add(prefix + "core_hours", core_hours);
    json.add(prefix + "nameko_core_hours", nameko_core_hours);
    json.add(prefix + "memory_gb_hours", r.total_memory_gb_hours());
    json.add(prefix + "peak_pool_containers",
             static_cast<double>(r.peak_pool_containers));
    json.add(prefix + "prewarm_denied",
             static_cast<double>(r.prewarm_denied_total));
  }

  // Gate 1 (bis): a third run of the largest N with observability (and,
  // under --profile-out, the self-profiler) attached must execute the same
  // trace as the plain ones — instrumentation is pure bookkeeping even at
  // cluster scale.
  {
    const auto profiles = exp::cluster_tenants(max_n, peak_fraction);
    std::vector<exp::ClusterServiceSpec> specs;
    for (std::size_t i = 0; i < profiles.size(); ++i) {
      specs.push_back(exp::ClusterServiceSpec{
          profiles[i], base_artifacts[i % base_artifacts.size()],
          static_cast<double>(i) / static_cast<double>(max_n)});
    }
    exp::ClusterRunOptions opt;
    opt.period_s = period_s;
    opt.duration_days = 1.0;
    opt.warmup_s = 60.0;
    opt.seed = cluster.seed;
    opt.observer = observability.begin_run();
    opt.profiler = observability.profiler();
    const auto t0 = std::chrono::steady_clock::now();
    const auto repeat = exp::run_cluster(specs, cluster, cal, opt);
    const double run_wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (opt.profiler != nullptr) {
      // Self-profile gate: the per-domain breakdown must account for at
      // least 90% of the measured run_cluster wall time — otherwise the
      // instrumentation has blind spots and the breakdown misleads.
      const auto profile = opt.profiler->report();
      const double coverage =
          run_wall_s > 0.0 ? profile.attributed_s() / run_wall_s : 0.0;
      std::cout << "\nself-profile (N=" << max_n << "): attributed "
                << exp::fmt_fixed(profile.attributed_s(), 3) << " s of "
                << exp::fmt_fixed(run_wall_s, 3) << " s run wall ("
                << exp::fmt_percent(coverage) << ")\n";
      json.add("profile_coverage", coverage);
      json.add("profile_attributed_s", profile.attributed_s());
      json.add("profile_run_wall_s", run_wall_s);
      if (coverage < 0.90) {
        std::cerr << "FAIL: self-profile attributes "
                  << exp::fmt_percent(coverage)
                  << " of run wall time (gate: >= 90%)\n";
        ok = false;
      }
    }
    observability.end_run("fig17_n" + std::to_string(max_n));
    const auto& first = cluster_runs.back().run;
    const bool same = repeat.trace_hash == first.trace_hash;
    std::cout << "\ndeterminism (N=" << max_n << "): same-seed rerun "
              << (same ? "matches" : "MISMATCHES") << " ("
              << std::hex << first.trace_hash << std::dec << ")\n";
    json.add("deterministic", same);
    if (!same) {
      std::cerr << "FAIL: same-seed cluster runs diverged"
                << (opt.profiler != nullptr ? " with the profiler attached"
                                            : "")
                << "\n";
      ok = false;
    }
  }

  std::cout << "\nexpected: violations track the solo baselines, total\n"
               "core-hours undercut all-Nameko, and same-seed runs hash\n"
               "identically at every N.\n";
  if (!flags.json_out.empty() && !json.write(flags.json_out)) return 1;
  return ok ? 0 : 1;
}
