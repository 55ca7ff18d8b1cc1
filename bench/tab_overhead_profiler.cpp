// Overhead of the self-profiler (obs/profiler.hpp): the same run_managed
// scenario is executed with the profiler detached and attached, and the
// slowdown of the attached run is gated at --max-overhead-pct (default 5%).
// The workload is the real single-service evaluation scenario — engine
// dispatch + fair-share recompute + control loop — not raw engine churn, so
// the measured percentage is what fig/tab benches actually pay for
// --profile-out.
//
//   tab_overhead_profiler [--repeats R] [--period-s S] [--json-out PATH]
//                         [--max-overhead-pct P]
//
// Results (profiler_overhead_pct, off/on events/sec) are merged into the
// existing BENCH_simulator.json — the file is parsed with obs::parse_json
// and rewritten with micro_simulator's fields preserved. The off/on trace
// hashes must match: the profiler is pure wall-time bookkeeping, and a
// divergence here is a determinism bug, not an overhead problem.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/profiler.hpp"

namespace {

using namespace amoeba;
using Clock = std::chrono::steady_clock;

struct TimedRun {
  double wall_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t trace_hash = 0;
};

TimedRun timed_run(const workload::FunctionProfile& p,
                   const exp::ClusterConfig& cluster,
                   const core::MeterCalibration& cal,
                   const core::ServiceArtifacts& art,
                   const exp::ManagedRunOptions& opt) {
  const auto t0 = Clock::now();
  const auto r = exp::run_managed(p, exp::DeploySystem::kAmoeba, cluster,
                                  cal, art, opt);
  TimedRun out;
  out.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  out.events = r.events_executed;
  out.trace_hash = r.trace_hash;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  int repeats = 5;
  double period_s = 2160.0;
  std::string json_out = "BENCH_simulator.json";
  double max_overhead_pct = 5.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--repeats" && i + 1 < argc) {
      repeats = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (arg == "--period-s" && i + 1 < argc) {
      period_s = std::strtod(argv[++i], nullptr);
    } else if (arg == "--json-out" && i + 1 < argc) {
      json_out = argv[++i];
    } else if (arg == "--max-overhead-pct" && i + 1 < argc) {
      max_overhead_pct = std::strtod(argv[++i], nullptr);
    } else {
      std::cerr << "usage: tab_overhead_profiler [--repeats R]"
                   " [--period-s S] [--json-out PATH]"
                   " [--max-overhead-pct P]\n";
      return 2;
    }
  }
  AMOEBA_EXPECTS(repeats > 0 && period_s > 0.0 && max_overhead_pct > 0.0);

  const auto cluster = exp::default_cluster();
  const auto prof = bench::bench_profiling();
  exp::print_banner(std::cout, "Overhead",
                    "self-profiler cost on the run_managed scenario");

  const auto cal = exp::profile_meters(cluster, prof);
  const auto p = workload::make_float();
  const auto art = exp::profile_service(p, cluster, cal, prof);

  auto opt = bench::bench_run_options();
  opt.period_s = period_s;  // a compressed day keeps one repeat ~seconds

  // Each repeat runs off-then-on back to back, so a noise burst on a
  // time-shared machine usually hits both sides of the pair; the overhead
  // estimate is the *median* of the per-pair slowdown ratios, which shrugs
  // off the pairs where a burst hit only one side (min-of-mins does not:
  // one lucky "off" sample inflates the whole estimate). The fastest runs
  // still provide the events/sec figures.
  TimedRun off, on;
  double off_min = 0.0, on_min = 0.0;
  std::vector<double> pair_ratio;
  bool hashes_match = true;
  for (int r = 0; r < repeats; ++r) {
    opt.profiler = nullptr;
    const TimedRun o = timed_run(p, cluster, cal, art, opt);
    if (r == 0 || o.wall_s < off_min) {
      off = o;
      off_min = o.wall_s;
    }
    obs::Profiler profiler;
    opt.profiler = &profiler;
    const TimedRun a = timed_run(p, cluster, cal, art, opt);
    if (r == 0 || a.wall_s < on_min) {
      on = a;
      on_min = a.wall_s;
    }
    pair_ratio.push_back(a.wall_s / o.wall_s);
    hashes_match = hashes_match && (o.trace_hash == a.trace_hash);
    std::cout << "  repeat " << (r + 1) << "/" << repeats << ": off "
              << exp::fmt_fixed(o.wall_s, 3) << " s, on "
              << exp::fmt_fixed(a.wall_s, 3) << " s\n";
  }

  std::sort(pair_ratio.begin(), pair_ratio.end());
  const std::size_t mid = pair_ratio.size() / 2;
  const double median_ratio =
      pair_ratio.size() % 2 == 1
          ? pair_ratio[mid]
          : 0.5 * (pair_ratio[mid - 1] + pair_ratio[mid]);
  const double overhead_pct = (median_ratio - 1.0) * 100.0;
  const double off_eps = static_cast<double>(off.events) / off.wall_s;
  const double on_eps = static_cast<double>(on.events) / on.wall_s;
  std::cout << "\n  events/sec: off " << exp::fmt_fixed(off_eps, 0)
            << ", on " << exp::fmt_fixed(on_eps, 0)
            << "\n  profiler overhead: " << exp::fmt_fixed(overhead_pct, 2)
            << "% (gate: <= " << max_overhead_pct << "%)"
            << "\n  trace hashes off vs on: "
            << (hashes_match ? "identical" : "DIVERGED") << "\n";

  bench::BenchJson json;
  bench::merge_existing(json, json_out, "profiler_",
                        bench::KeepKeys::kWithoutPrefix);
  json.add("profiler_overhead_pct", overhead_pct);
  json.add("profiler_off_events_per_sec", off_eps);
  json.add("profiler_on_events_per_sec", on_eps);
  json.add("profiler_overhead_repeats", static_cast<double>(repeats));
  json.add("profiler_overhead_period_s", period_s);
  json.add("profiler_deterministic", hashes_match);
  if (!json.write(json_out)) return 1;
  std::cout << "merged profiler overhead into " << json_out << "\n";

  bool ok = true;
  if (!hashes_match) {
    std::cerr << "FAIL: trace hash changed with the profiler attached\n";
    ok = false;
  }
  if (overhead_pct > max_overhead_pct) {
    std::cerr << "FAIL: profiler overhead " << exp::fmt_fixed(overhead_pct, 2)
              << "% exceeds " << max_overhead_pct << "%\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
