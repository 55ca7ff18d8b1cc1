// Standalone engine-throughput benchmark. Measures events/sec for the
// schedule-fire, schedule-cancel and mixed schedule/cancel/fire workloads,
// the arrival generators of a fig17 N=12 cluster day on their own (ns per
// thinning candidate, and the share of candidates that needed the exact
// rate), the controller tick's two solves on their own (the Eq. 5 λ_max
// bisection at n = 4 and n = 64, and one PCR refit of the Eq. 6 weights),
// plus the wall clock of one profiling call (exp::profile_service for
// float, the figure benches' 6×5 grid) at --jobs 1 vs --jobs N, and
// records everything in machine-readable BENCH_simulator.json so each
// change's perf trajectory is comparable to the last. The `profiler_*`
// fields that tab_overhead_profiler merges into the same file are kept.
//
//   micro_simulator [--events N] [--repeats R] [--jobs N] [--json-out PATH]
//
// The mixed workload is timeout churn — the pattern that dominates the
// repository's simulations (fair-share completion reschedules, keep-alive
// expiry, load-generator rate changes): every operation schedules a
// completion that fires and a far-future timeout that the next operation
// cancels, so most scheduled events die by cancellation.
#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/profile_data.hpp"
#include "core/queueing.hpp"
#include "exp/cluster.hpp"
#include "exp/profiling.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "linalg/pca.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "workload/diurnal_trace.hpp"
#include "workload/functionbench.hpp"
#include "workload/load_generator.hpp"

namespace {

using namespace amoeba;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Pre-rewrite engine throughput (events/sec) on these exact loops, from
/// the seed engine (priority_queue + unordered_map<EventId, std::function>,
/// commit 6349bc8) at the default --events 500000 --repeats 5. Measured on
/// the development container; kept here so BENCH_simulator.json always
/// reports the speedup this rewrite is accountable for.
struct Baseline {
  double fire;
  double cancel;
  double mixed;
};

/// Schedule n events (times cycle over 97 distinct values), then fire all.
double bench_schedule_fire(std::size_t n, int repeats) {
  std::uint64_t fired = 0;
  const auto t0 = Clock::now();
  for (int r = 0; r < repeats; ++r) {
    sim::Engine e;
    for (std::size_t i = 0; i < n; ++i) {
      e.schedule(static_cast<double>(i % 97), [] {});
    }
    e.run();
    fired += e.executed();
  }
  return static_cast<double>(fired) / seconds_since(t0);
}

/// Schedule n events, cancel every one, then run (which fires nothing).
double bench_schedule_cancel(std::size_t n, int repeats) {
  std::uint64_t cancelled = 0;
  std::vector<sim::EventId> ids(n);
  const auto t0 = Clock::now();
  for (int r = 0; r < repeats; ++r) {
    sim::Engine e;
    for (std::size_t i = 0; i < n; ++i) {
      ids[i] = e.schedule(static_cast<double>(i % 97), [] {});
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (e.cancel(ids[i])) ++cancelled;
    }
    e.run();
  }
  return static_cast<double>(cancelled) / seconds_since(t0);
}

/// Timeout churn: per operation, one completion event (fires) and one 30 s
/// timeout cancelled by the next operation. Arrival gaps and execution
/// times are precomputed so the timed region is pure engine work. Counts
/// both schedules per operation as events (each is fully processed: fired
/// or cancelled).
double bench_mixed(std::size_t n, int repeats, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<double> gap(n);
  for (auto& g : gap) g = rng.exponential(0.01);
  std::vector<double> exec(n);
  for (auto& x : exec) x = rng.exponential(0.05);

  std::uint64_t events = 0;
  const auto t0 = Clock::now();
  for (int r = 0; r < repeats; ++r) {
    sim::Engine e;
    std::uint64_t acc = 0;
    std::uint64_t* sink = &acc;
    sim::EventId pending_timeout = sim::kNoEvent;
    double t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto a = static_cast<std::uint64_t>(i);
      t += gap[i];
      e.schedule(t + exec[i], [sink, a] { *sink += a; });
      if (pending_timeout != sim::kNoEvent) e.cancel(pending_timeout);
      pending_timeout = e.schedule(t + 30.0, [sink, a] { *sink ^= a; });
      if ((i & 15) == 0) e.run_until(t);
    }
    e.run();
    events += 2 * static_cast<std::uint64_t>(n);
  }
  return static_cast<double>(events) / seconds_since(t0);
}

struct ArrivalTiming {
  double ns_per_candidate = 0.0;
  double exact_fraction = 0.0;
  std::uint64_t arrivals = 0;
};

/// The twelve arrival streams of a fig17 N=12 cluster day at seed 3, built
/// as exp::SimNode::add_stream builds them, run alone over one 1260 s day
/// (no platform: an arrival only counts). Times the whole day, engine
/// included, per thinning candidate.
ArrivalTiming bench_arrivals(int repeats) {
  constexpr std::uint64_t kSeed = 3;
  constexpr int kTenants = 12;
  const auto tenants = exp::cluster_tenants(kTenants, 0.5);
  std::uint64_t candidates = 0, exact = 0, arrivals = 0;
  double wall_s = 0.0;
  for (int r = 0; r < repeats; ++r) {
    sim::Engine engine;
    std::vector<std::unique_ptr<workload::DiurnalTrace>> traces;
    std::vector<std::unique_ptr<workload::PoissonLoadGenerator>> gens;
    for (int i = 0; i < kTenants; ++i) {
      const auto f = static_cast<std::uint64_t>(i);
      traces.push_back(std::make_unique<workload::DiurnalTrace>(
          exp::diurnal_for(tenants[f], 1200.0, i / double{kTenants}),
          kSeed ^ (0x51u + f)));
      gens.push_back(std::make_unique<workload::PoissonLoadGenerator>(
          engine, sim::Rng(kSeed).fork(2000 + f), *traces.back(),
          [&arrivals] { ++arrivals; }));
    }
    const auto t0 = Clock::now();
    for (auto& g : gens) g->start();
    engine.run_until(1260.0);
    for (auto& g : gens) g->stop();
    wall_s += seconds_since(t0);
    for (const auto& g : gens) {
      candidates += g->candidates();
      exact += g->exact_rate_calls();
    }
  }
  ArrivalTiming out;
  out.ns_per_candidate = 1e9 * wall_s / static_cast<double>(candidates);
  out.exact_fraction =
      static_cast<double>(exact) / static_cast<double>(candidates);
  out.arrivals = arrivals / static_cast<std::uint64_t>(repeats);
  return out;
}

/// ns per queueing::max_arrival_rate call with n containers, the solve
/// DeploymentController::evaluate runs on every tick: a 0.1 s service whose
/// rate varies a little from call to call, against a 0.3 s target.
double bench_lambda_max(int n, std::size_t calls) {
  double sink = 0.0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < calls; ++i) {
    const double mu = 10.0 + 0.01 * static_cast<double>(i % 97);
    sink += core::queueing::max_arrival_rate(n, mu, 0.3, core::kQosPercentile)
                .value_or(0.0);
  }
  const double wall_s = seconds_since(t0);
  AMOEBA_ENSURES(sink > 0.0);
  return 1e9 * wall_s / static_cast<double>(calls);
}

/// ns per PCR refit as WeightEstimator::maybe_refit runs it: fit_pcr on a
/// full 512-sample window of three correlated features, into a model and
/// a scratch reused from refit to refit. One sample slides through the
/// window between refits (not timed), so every fit sees new moments.
double bench_pcr_refit(std::size_t refits) {
  constexpr std::size_t kWindow = 512;
  sim::Rng rng(42);
  std::vector<std::array<double, 4>> stream(kWindow + refits);
  for (auto& s : stream) {
    const double latent = rng.uniform(0.0, 0.3);
    for (std::size_t j = 0; j < 3; ++j) {
      s[j] = 0.1 + latent * (1.0 + 0.2 * static_cast<double>(j)) +
             rng.uniform(0.0, 0.01);
    }
    s[3] = 0.1 + latent + rng.uniform(0.0, 0.005);
  }
  const auto x = [&stream](std::size_t i) {
    return std::span<const double>(stream[i].data(), 3);
  };
  linalg::WindowMoments m(3);
  for (std::size_t i = 0; i < kWindow; ++i) m.add(x(i), stream[i][3]);
  linalg::PcrModel model;
  linalg::FitScratch scratch;
  double sink = 0.0;
  double wall_s = 0.0;
  for (std::size_t r = 0; r < refits; ++r) {
    m.remove_oldest(x(r), stream[r][3]);
    m.add(x(r + kWindow), stream[r + kWindow][3]);
    const auto t0 = Clock::now();
    linalg::fit_pcr(m, model, scratch);
    wall_s += seconds_since(t0);
    sink += model.intercept;
  }
  AMOEBA_ENSURES(sink > 0.0);
  return 1e9 * wall_s / static_cast<double>(refits);
}

/// The sweep: one profile_service call for float on the figure benches'
/// 6 pressures × 5 loads, 93 independent simulations in one parallel_for.
/// Cells last 60 simulated seconds at the default --events and shrink in
/// proportion below it (6 s at least), so the TSan and -O0 smoke runs stay
/// short.
exp::ProfilingConfig sweep_config(std::size_t events, unsigned jobs) {
  exp::ProfilingConfig cfg;
  cfg.pressure_grid = {0.02, 0.2, 0.4, 0.6, 0.8, 0.92};
  cfg.load_fractions = {0.05, 0.25, 0.5, 0.75, 1.0};
  cfg.cell_duration_s =
      std::max(6.0, 60.0 * static_cast<double>(events) / 500000.0);
  cfg.warmup_s = cfg.cell_duration_s / 6.0;
  cfg.threads = jobs;
  return cfg;
}

/// Every double of a service's artifacts, so the jobs=1 and jobs=N runs
/// can be compared bit for bit.
std::vector<double> artifact_values(const core::ServiceArtifacts& art) {
  std::vector<double> out{art.solo_latency_s, art.alpha_s};
  for (const auto& surface : art.surfaces) {
    for (std::size_t pi = 0; pi < surface->pressures().size(); ++pi) {
      for (std::size_t li = 0; li < surface->loads().size(); ++li) {
        out.push_back(surface->value(pi, li));
      }
    }
  }
  out.insert(out.end(), art.pressure_per_qps.begin(),
             art.pressure_per_qps.end());
  return out;
}

struct SweepTiming {
  double wall_s = 0.0;
  std::vector<std::uint64_t> bits;
};

SweepTiming run_sweep(const exp::ClusterConfig& cluster,
                      const core::MeterCalibration& calibration,
                      const exp::ProfilingConfig& cfg) {
  SweepTiming timing;
  const auto t0 = Clock::now();
  const core::ServiceArtifacts art =
      exp::profile_service(workload::make_float(), cluster, calibration, cfg);
  timing.wall_s = seconds_since(t0);
  for (const double v : artifact_values(art)) {
    timing.bits.push_back(std::bit_cast<std::uint64_t>(v));
  }
  return timing;
}

}  // namespace

int main(int argc, char** argv) {
  // --jobs here is the N of the "jobs=1 vs jobs=N" comparison (default 8);
  // parse_jobs_flag returns 1 when the flag is absent.
  unsigned jobs = exp::parse_jobs_flag(argc, argv);
  if (jobs == 1) jobs = 8;
  std::size_t events = 500000;
  int repeats = 5;
  std::string json_out = "BENCH_simulator.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--events" && i + 1 < argc) {
      events = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--repeats" && i + 1 < argc) {
      repeats = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (arg == "--json-out" && i + 1 < argc) {
      json_out = argv[++i];
    } else {
      std::cerr << "usage: micro_simulator [--events N] [--repeats R]"
                   " [--jobs N] [--json-out PATH]\n";
      return 2;
    }
  }
  AMOEBA_EXPECTS(events > 0 && repeats > 0);

  // Pre-rewrite numbers for the default workload size (medians of five
  // runs of the seed engine through these exact loops, RelWithDebInfo,
  // contracts on). Scaled runs (CI smoke) still record them for context
  // but the speedup is only apples-to-apples at the default
  // --events/--repeats.
  const Baseline baseline{1.71e6, 2.75e6, 1.64e7};

  std::cout << "engine micro-benchmark: events=" << events
            << " repeats=" << repeats << " jobs=" << jobs << "\n";

  const double fire = bench_schedule_fire(events, repeats);
  std::cout << "  schedule-fire:   " << fire << " events/sec\n";
  const double cancel = bench_schedule_cancel(events, repeats);
  std::cout << "  schedule-cancel: " << cancel << " events/sec\n";
  const double mixed = bench_mixed(events, repeats, 7);
  std::cout << "  mixed:           " << mixed
            << " events/sec (" << mixed / baseline.mixed
            << "x of pre-rewrite baseline)\n";

  const ArrivalTiming arrivals = bench_arrivals(repeats);
  std::cout << "  arrivals (12 cluster_n12 streams, 1260 s day, "
            << arrivals.arrivals << " arrivals): "
            << arrivals.ns_per_candidate << " ns/candidate, exact rate for "
            << 100.0 * arrivals.exact_fraction << "% of candidates\n";

  // 2,000 solves and 10,000 refits at the default --events.
  const std::size_t solves = std::max<std::size_t>(50, events / 250);
  const double lambda_max_n4_ns = bench_lambda_max(4, solves);
  const double lambda_max_n64_ns = bench_lambda_max(64, solves);
  const double pcr_refit_ns =
      bench_pcr_refit(std::max<std::size_t>(200, events / 50));
  std::cout << "  controller: lambda_max " << lambda_max_n4_ns
            << " ns (n=4), " << lambda_max_n64_ns << " ns (n=64); PCR refit "
            << pcr_refit_ns << " ns\n";

  const exp::ClusterConfig cluster = exp::default_cluster();
  const exp::ProfilingConfig serial_cfg = sweep_config(events, 1);
  const exp::ProfilingConfig parallel_cfg = sweep_config(events, jobs);
  const core::MeterCalibration calibration =
      exp::profile_meters(cluster, parallel_cfg);
  const std::size_t sweep_tasks =
      2 + 1 +
      core::kNumResources * serial_cfg.pressure_grid.size() *
          serial_cfg.load_fractions.size();
  const SweepTiming serial = run_sweep(cluster, calibration, serial_cfg);
  const SweepTiming parallel = run_sweep(cluster, calibration, parallel_cfg);
  const bool deterministic = serial.bits == parallel.bits;
  std::cout << "  sweep (profile_service float, " << sweep_tasks
            << " tasks of " << serial_cfg.cell_duration_s
            << " simulated s): jobs=1 " << serial.wall_s << " s, jobs="
            << jobs << " " << parallel.wall_s
            << " s, identical artifacts: " << (deterministic ? "yes" : "NO")
            << "\n";

  bench::BenchJson json;
  json.add("bench", std::string{"simulator"});
  json.add("events", static_cast<double>(events));
  json.add("repeats", static_cast<double>(repeats));
  json.add("schedule_fire_events_per_sec", fire);
  json.add("schedule_cancel_events_per_sec", cancel);
  json.add("mixed_events_per_sec", mixed);
  json.add("baseline_schedule_fire_events_per_sec", baseline.fire);
  json.add("baseline_schedule_cancel_events_per_sec", baseline.cancel);
  json.add("baseline_mixed_events_per_sec", baseline.mixed);
  json.add("mixed_speedup_vs_baseline", mixed / baseline.mixed);
  json.add("arrivals_ns_per_candidate", arrivals.ns_per_candidate);
  json.add("arrivals_exact_fraction", arrivals.exact_fraction);
  json.add("controller_lambda_max_ns_n4", lambda_max_n4_ns);
  json.add("controller_lambda_max_ns_n64", lambda_max_n64_ns);
  json.add("pcr_refit_ns", pcr_refit_ns);
  json.add("sweep_tasks", static_cast<double>(sweep_tasks));
  json.add("sweep_cell_duration_s", serial_cfg.cell_duration_s);
  json.add("sweep_jobs", static_cast<double>(jobs));
  // Interpret sweep_speedup against the cores actually available: on a
  // single-core runner jobs=N cannot beat jobs=1, so a sub-1.0 ratio is a
  // property of the box, not a perf regression — record why the speedup is
  // omitted instead of a misleading number.
  const unsigned cores = std::thread::hardware_concurrency();
  json.add("hardware_concurrency", static_cast<double>(cores));
  json.add("sweep_wall_s_jobs1", serial.wall_s);
  json.add("sweep_wall_s_jobsN", parallel.wall_s);
  bool sweep_ok = true;
  if (cores < 2) {
    json.add("sweep_skipped_reason",
             std::string{"hardware_concurrency < 2: jobs=N cannot beat "
                         "jobs=1 on this machine"});
  } else {
    const double speedup = serial.wall_s / parallel.wall_s;
    json.add("sweep_speedup", speedup);
    if (events >= 500000) {
      // Only gate at the default workload size: smoke-sized cells are too
      // small to amortize worker startup, so their ratio is noise.
      if (speedup < 1.0) {
        std::cerr << "FAIL: sweep speedup " << speedup << " < 1.0 with "
                  << cores << " hardware threads\n";
        sweep_ok = false;
      }
    } else {
      json.add("sweep_gate_skipped_reason",
               std::string{"smoke-size workload: shortened cells are too "
                           "short to time reliably"});
    }
  }
  json.add("sweep_deterministic", deterministic);
  // tab_overhead_profiler's fields, recorded into the same file.
  bench::merge_existing(json, json_out, "profiler_",
                        bench::KeepKeys::kWithPrefix);
  if (!json.write(json_out)) return 1;
  std::cout << "wrote " << json_out << "\n";
  return (deterministic && sweep_ok) ? 0 : 1;
}
