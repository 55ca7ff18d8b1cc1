// One workload of the end-to-end scenario benchmark, run in one process.
//
//   perf_scenarios --workload cluster_n12|diamond|openwhisk_day --seed N
//                  [--seconds S] [--trace 0|1]
//
// A run has two phases, each timed from outside the library:
//
//   set-up  profile the meters and the workload's services in memory
//           (exp::profile_meters / exp::profile_service, no disk cache)
//           and build the scenario;
//   days    three simulated days with seeds derived from --seed, driven
//           through exp::run_cluster / exp::run_callgraph / exp::run_managed.
//           Passes over the days repeat until they have taken S seconds,
//           so every day is timed several times (all but the very first,
//           a warm-up) and every repeat must reproduce the first pass
//           exactly.
//
// The speed of a shared host drifts by tens of percent over seconds to
// minutes. Two things keep the figures steady: every timed interval is
// reported in reference seconds, scaled by a fixed reference loop run just
// before and after it (HostSpeed), and further set-ups are timed between
// the timed days rather than back to back, so both medians sample the host
// over the whole run.
//
// With --trace 1 the run instead measures per-layer numbers: one parallel
// set-up, one single-threaded set-up with an obs::Profiler attached to the
// calling thread, then each day untraced and traced (profiler attached
// through the public `profiler` option) in alternating order, plus one
// untimed counting day per seed for the cold starts.
//
// Output: one JSON object on stdout with the metrics (each with its unit),
// the output checks, the operation counts and the behaviour fingerprint of
// the first day. Progress notes go to stderr. Exit code 0 even when a check
// fails (the caller reports it); 2 on bad arguments.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exp/callgraph.hpp"
#include "exp/cluster.hpp"
#include "exp/profiling.hpp"
#include "exp/scenario.hpp"
#include "obs/json.hpp"
#include "obs/observer.hpp"
#include "obs/profiler.hpp"
#include "workload/functionbench.hpp"

namespace {

using namespace amoeba;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process CPU seconds (user + sys, every thread).
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Current resident set size, MiB (Linux /proc; 0 where unavailable).
double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0;
  long pages_resident = 0;
  if (!(statm >> pages_total >> pages_resident)) return 0.0;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Peak resident set size of the process so far, MiB.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

std::string hex64(std::uint64_t x) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(x));
  return buf;
}

// ---------------------------------------------------------------------------
// Set-up: the profiling grid of the figure benches, on a fixed thread count.

exp::ProfilingConfig profiling_config(unsigned threads) {
  exp::ProfilingConfig cfg;
  cfg.pressure_grid = {0.02, 0.2, 0.4, 0.6, 0.8, 0.92};
  cfg.load_fractions = {0.05, 0.25, 0.5, 0.75, 1.0};
  cfg.cell_duration_s = 60.0;
  cfg.warmup_s = 10.0;
  cfg.solo_probe_qps = 2.0;
  cfg.threads = threads;
  return cfg;
}

/// Simulation cells one set-up runs: a meter curve has one cell per
/// pressure; a service has its solo cell, three surfaces and two probe runs.
int setup_cells(const exp::ProfilingConfig& cfg, bool meters,
                std::size_t services) {
  const auto np = static_cast<int>(cfg.pressure_grid.size());
  const auto nl = static_cast<int>(cfg.load_fractions.size());
  const int meter_cells = meters ? 3 * np : 0;
  return meter_cells + static_cast<int>(services) * (1 + 3 * np * nl + 2);
}

struct Artifacts {
  core::MeterCalibration calibration;
  std::vector<core::ServiceArtifacts> services;  ///< aligned with profiled()
};

/// Wall and CPU seconds of one set-up and wall seconds of each of its
/// profiling calls, in reference seconds (see HostSpeed).
struct SetupTimes {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double meters_s = 0.0;
  std::map<std::string, double> service_s;
  double host_wall_s = 0.0;  ///< the same wall time, unscaled
};

bool curves_monotone(const core::MeterCalibration& cal) {
  for (const auto& curve : cal.curves) {
    if (!curve) return false;
    const auto& pts = curve->points();
    for (std::size_t i = 1; i < pts.size(); ++i) {
      if (pts[i].pressure <= pts[i - 1].pressure ||
          pts[i].latency < pts[i - 1].latency) {
        return false;
      }
    }
  }
  return true;
}

/// Exact equality of the artifact numbers a set-up hands to the runs, over
/// the services both sets hold.
bool same_artifacts(const Artifacts& a, const Artifacts& b) {
  for (std::size_t d = 0; d < a.calibration.curves.size(); ++d) {
    const auto& ca = a.calibration.curves[d];
    const auto& cb = b.calibration.curves[d];
    if (ca.has_value() != cb.has_value()) return false;
    if (!ca) continue;
    const auto& pa = ca->points();
    const auto& pb = cb->points();
    if (pa.size() != pb.size()) return false;
    for (std::size_t i = 0; i < pa.size(); ++i) {
      if (pa[i].pressure != pb[i].pressure || pa[i].latency != pb[i].latency) {
        return false;
      }
    }
  }
  const std::size_t n = std::min(a.services.size(), b.services.size());
  for (std::size_t s = 0; s < n; ++s) {
    if (a.services[s].solo_latency_s != b.services[s].solo_latency_s ||
        a.services[s].pressure_per_qps != b.services[s].pressure_per_qps) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Day outcome: what one simulated day reports, in one schema for all three
// drivers.

struct Series {
  std::string name;
  double target_s = 0.0;
  std::vector<double> latencies;  ///< post-warmup user-facing latencies
};

struct DayOutcome {
  std::uint64_t trace_hash = 0;
  std::uint64_t events = 0;
  double core_hours = 0.0;
  double memory_gb_hours = 0.0;
  std::vector<Series> series;
  std::uint64_t unfinished = 0;  ///< queries cut off by the end of the day
  std::uint64_t queries = 0;
  std::uint64_t switches = 0;
  std::uint64_t switch_aborts = 0;
  std::uint64_t switch_retries = 0;
  std::uint64_t prewarm_denied = 0;
  std::uint64_t pool_evictions = 0;
  std::uint64_t peak_pool_containers = 0;
  std::uint64_t cold_starts = 0;  ///< filled by counting days only
  std::vector<double> switch_times;
  /// Workload-specific output checks ("" = passed).
  std::string failure;

  [[nodiscard]] std::uint64_t misses() const {
    std::uint64_t m = unfinished;
    for (const auto& s : series) {
      m += static_cast<std::uint64_t>(std::count_if(
          s.latencies.begin(), s.latencies.end(),
          [&](double x) { return x > s.target_s; }));
    }
    return m;
  }
  [[nodiscard]] std::uint64_t judged() const {
    std::uint64_t n = unfinished;
    for (const auto& s : series) n += s.latencies.size();
    return n;
  }
};

/// Simulated results two runs of one seed must reproduce exactly.
bool same_behaviour(const DayOutcome& a, const DayOutcome& b) {
  if (a.trace_hash != b.trace_hash || a.events != b.events ||
      a.core_hours != b.core_hours ||
      a.memory_gb_hours != b.memory_gb_hours || a.queries != b.queries ||
      a.switches != b.switches || a.switch_times != b.switch_times ||
      a.series.size() != b.series.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    if (a.series[i].latencies != b.series[i].latencies) return false;
  }
  return true;
}

double p95_of(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  stats::SampleSet s;
  s.reserve(v.size());
  for (double x : v) s.add(x);
  return s.quantile(0.95);
}

// ---------------------------------------------------------------------------
// Workloads.

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  Workload(Workload&&) = delete;
  Workload& operator=(Workload&&) = delete;

  /// Whether set-up profiles the contention meters.
  [[nodiscard]] virtual bool needs_meters() const = 0;
  /// Base services set-up profiles, in the order build() receives them.
  [[nodiscard]] virtual std::vector<workload::FunctionProfile> profiled()
      const = 0;
  /// Scenario construction from the set-up's artifacts.
  virtual void build(const Artifacts& artifacts) = 0;
  /// One simulated day. `counting` attaches the (untimed) bookkeeping that
  /// reports cold starts.
  [[nodiscard]] virtual DayOutcome run_day(std::uint64_t seed,
                                           obs::Profiler* profiler,
                                           bool counting) const = 0;
};

const exp::ClusterConfig& cluster_config() {
  static const exp::ClusterConfig c = exp::default_cluster();
  return c;
}

/// Sum of the runtimes' `cold_starts` counters of a metrics-only observer.
/// (MetricsRegistry::counter creates a missing counter at zero, so services
/// that never cold-started read as zero.)
std::uint64_t observed_cold_starts(obs::Observer& o,
                                   const std::vector<std::string>& services) {
  auto& m = o.metrics();
  double total = 0.0;
  for (const auto& s : services) {
    total += m.counter("cold_starts", {{"service", s}}).value();
  }
  return static_cast<std::uint64_t>(total);
}

/// fig17 at N = 12: twelve phase-shifted tenants cycling the FunctionBench
/// suite at half peak, one Amoeba runtime each, default cluster options.
class ClusterN12 final : public Workload {
 public:
  static constexpr int kTenants = 12;
  static constexpr double kPeakFraction = 0.5;

  bool needs_meters() const override { return true; }
  std::vector<workload::FunctionProfile> profiled() const override {
    return workload::functionbench_suite();
  }
  void build(const Artifacts& a) override {
    calibration_ = a.calibration;
    specs_.clear();
    nameko_cores_ = 0.0;
    const auto tenants = exp::cluster_tenants(kTenants, kPeakFraction);
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      specs_.push_back(exp::ClusterServiceSpec{
          tenants[i], a.services[i % a.services.size()],
          static_cast<double>(i) / kTenants});
      nameko_cores_ += exp::just_enough_vm(tenants[i], cluster_config()).cores;
    }
  }
  DayOutcome run_day(std::uint64_t seed, obs::Profiler* profiler,
                     bool counting) const override {
    exp::ClusterRunOptions opt;
    opt.seed = seed;
    opt.profiler = profiler;
    std::optional<obs::Observer> observer;
    if (counting) {
      observer.emplace(obs::ObsConfig{false, true, false});
      opt.observer = &*observer;
    }
    const auto r = exp::run_cluster(specs_, cluster_config(), calibration_, opt);
    DayOutcome d;
    d.trace_hash = r.trace_hash;
    d.events = r.events_executed;
    d.core_hours = r.total_core_hours();
    d.memory_gb_hours = r.total_memory_gb_hours();
    std::vector<std::string> names;
    for (const auto& s : r.services) {
      names.push_back(s.name);
      d.series.push_back(Series{s.name, s.qos_target_s, s.latencies.raw()});
      d.queries += s.queries;
      d.switches += s.switches.size();
      d.switch_aborts += s.switch_aborts;
      d.switch_retries += s.switch_retries;
      for (const auto& sw : s.switches) d.switch_times.push_back(sw.time);
    }
    d.prewarm_denied = r.prewarm_denied_total;
    d.pool_evictions = r.pool_evictions;
    d.peak_pool_containers =
        static_cast<std::uint64_t>(r.peak_pool_containers);
    if (counting) d.cold_starts = observed_cold_starts(*observer, names);
    const double nameko_core_hours = nameko_cores_ * r.duration_s / 3600.0;
    if (!(d.core_hours < nameko_core_hours)) {
      d.failure = "core-hours " + std::to_string(d.core_hours) +
                  " not below all-Nameko " + std::to_string(nameko_core_hours);
    }
    return d;
  }

 private:
  core::MeterCalibration calibration_;
  std::vector<exp::ClusterServiceSpec> specs_;
  double nameko_cores_ = 0.0;
};

/// fig18: front -> {search, ads} -> render at 12 qps, end-to-end-aware
/// budgets, T = 0.85 x the summed targets along the heavy path.
class Diamond final : public Workload {
 public:
  static constexpr double kRootPeakQps = 12.0;

  bool needs_meters() const override { return true; }
  std::vector<workload::FunctionProfile> profiled() const override {
    return {workload::make_float(), workload::make_matmul()};
  }
  void build(const Artifacts& a) override {
    calibration_ = a.calibration;
    const auto float_base = workload::make_float();
    const auto matmul_base = workload::make_matmul();
    const double peak_fraction = kRootPeakQps / matmul_base.peak_load_qps;
    workload::CallGraph::Builder b;
    const int front = b.add_stage(
        "front", workload::as_tenant(float_base, 0, peak_fraction));
    const int search = b.add_stage(
        "search", workload::as_tenant(matmul_base, 1, peak_fraction));
    const int ads =
        b.add_stage("ads", workload::as_tenant(float_base, 2, peak_fraction));
    const int render = b.add_stage(
        "render", workload::as_tenant(float_base, 3, peak_fraction));
    b.add_edge(front, search);
    b.add_edge(front, ads);
    b.add_edge(search, render);
    b.add_edge(ads, render);
    graph_ = std::make_unique<workload::CallGraph>(b.build());
    artifacts_.clear();
    for (int k = 0; k < graph_->size(); ++k) {
      const bool heavy =
          graph_->stage(k).profile.name.rfind(matmul_base.name, 0) == 0;
      artifacts_.push_back(heavy ? a.services[1] : a.services[0]);
    }
    e2e_target_s_ = 0.85 * (2.0 * float_base.qos_target_s +
                            matmul_base.qos_target_s);
  }
  DayOutcome run_day(std::uint64_t seed, obs::Profiler* profiler,
                     bool counting) const override {
    exp::CallGraphRunOptions opt;
    opt.seed = seed;
    opt.e2e_qos_target_s = e2e_target_s_;
    opt.budget_mode = exp::BudgetMode::kEndToEndAware;
    opt.root_peak_qps = kRootPeakQps;
    opt.profiler = profiler;
    std::optional<obs::Observer> observer;
    if (counting) {
      observer.emplace(obs::ObsConfig{false, true, false});
      opt.observer = &*observer;
    }
    const auto r = exp::run_callgraph(*graph_, artifacts_, cluster_config(),
                                      calibration_, opt);
    DayOutcome d;
    d.trace_hash = r.trace_hash;
    d.events = r.events_executed;
    d.core_hours = r.total_core_hours();
    d.memory_gb_hours = r.total_memory_gb_hours();
    d.series.push_back(Series{"e2e", r.e2e_qos_target_s,
                              r.e2e_latencies.raw()});
    d.unfinished = r.queries_unfinished;
    d.queries = r.root_injected;
    std::vector<std::string> names;
    for (const auto& s : r.stages) {
      names.push_back(s.name);
      d.switches += s.switches;
      d.switch_aborts += s.switch_aborts;
      d.switch_retries += s.switch_retries;
    }
    d.prewarm_denied = r.prewarm_denied_total;
    d.pool_evictions = r.pool_evictions;
    d.peak_pool_containers =
        static_cast<std::uint64_t>(r.peak_pool_containers);
    if (counting) d.cold_starts = observed_cold_starts(*observer, names);
    if (r.root_injected != r.queries_completed + r.queries_unfinished) {
      d.failure = "query ledger broken: injected " +
                  std::to_string(r.root_injected) + " != completed " +
                  std::to_string(r.queries_completed) + " + unfinished " +
                  std::to_string(r.queries_unfinished);
    }
    return d;
  }

 private:
  core::MeterCalibration calibration_;
  std::unique_ptr<workload::CallGraph> graph_;
  std::vector<core::ServiceArtifacts> artifacts_;
  double e2e_target_s_ = 0.0;
};

/// The float service on pure serverless (no controller, no monitor, no
/// profiling) with the paper's background tenants at 0.30 of peak.
class OpenWhiskDay final : public Workload {
 public:
  bool needs_meters() const override { return false; }
  std::vector<workload::FunctionProfile> profiled() const override {
    return {};
  }
  void build(const Artifacts& /*artifacts*/) override {
    foreground_ = workload::make_float();
  }
  DayOutcome run_day(std::uint64_t seed, obs::Profiler* profiler,
                     bool counting) const override {
    exp::ManagedRunOptions opt;
    opt.seed = seed;
    opt.with_background = true;
    opt.background_peak_fraction = kBackgroundPeak;
    opt.keep_records = counting;
    opt.profiler = profiler;
    const auto r = exp::run_managed(foreground_, exp::DeploySystem::kOpenWhisk,
                                    cluster_config(), calibration_,
                                    artifacts_, opt);
    DayOutcome d;
    d.trace_hash = r.trace_hash;
    d.events = r.events_executed;
    d.core_hours = r.usage.cpu_core_seconds / 3600.0;
    d.memory_gb_hours = r.usage.memory_mb_seconds / (1024.0 * 3600.0);
    d.series.push_back(
        Series{foreground_.name, r.qos_target_s, r.latencies.raw()});
    d.queries = r.queries;
    for (const auto& rec : r.records) d.cold_starts += rec.cold ? 1 : 0;
    if (!r.switches.empty()) d.failure = "a pure baseline switched platforms";
    return d;
  }

 private:
  static constexpr double kBackgroundPeak = 0.30;
  workload::FunctionProfile foreground_;
  core::MeterCalibration calibration_;  // unused by the pure baseline
  core::ServiceArtifacts artifacts_;    // unused by the pure baseline
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "cluster_n12") return std::make_unique<ClusterN12>();
  if (name == "diamond") return std::make_unique<Diamond>();
  if (name == "openwhisk_day") return std::make_unique<OpenWhiskDay>();
  return nullptr;
}

// ---------------------------------------------------------------------------
// Set-up phase.


struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

int usage() {
  std::cerr << "usage: perf_scenarios --workload cluster_n12|diamond|"
               "openwhisk_day --seed N [--seconds S] [--trace 0|1]\n";
  return 2;
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a->workload = val;
      continue;
    }
    char* end = nullptr;
    const double x = std::strtod(val.c_str(), &end);
    if (end == val.c_str() || *end != '\0' || !(x >= 0.0 && x < 1e15)) {
      return false;
    }
    if (key == "--seed") {
      a->seed = static_cast<std::uint64_t>(x);
    } else if (key == "--seconds") {
      a->seconds = x;
    } else if (key == "--trace") {
      a->trace = x != 0.0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty();
}

/// Flat JSON object writer (insertion order kept).
class JsonObject {
 public:
  void num(const std::string& key, double v) { add(key, obs::json_number(v)); }
  void str(const std::string& key, const std::string& v) { add(key, quote(v)); }
  void boolean(const std::string& key, bool v) {
    add(key, v ? "true" : "false");
  }
  void raw(const std::string& key, const std::string& json) { add(key, json); }
  /// A metric as {"value": v, "unit": u}.
  void metric(const std::string& key, double v, const std::string& unit) {
    JsonObject m;
    m.num("value", v);
    m.str("unit", unit);
    add(key, m.text());
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

  static std::string quote(const std::string& s) {
    std::string out;
    out += '"';
    out += obs::json_escape(s);
    out += '"';
    return out;
  }

 private:
  void add(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += quote(key);
    body_ += ": ";
    body_ += value;
  }
  std::string body_;
};

std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i];
  }
  return out + "]";
}

/// Behaviour fingerprint of one day: what a pure refactor must not move.
std::string fingerprint(const DayOutcome& d, std::uint64_t seed) {
  JsonObject p95;
  for (const auto& s : d.series) p95.num(s.name, p95_of(s.latencies));
  std::vector<std::string> times;
  for (double t : d.switch_times) times.push_back(obs::json_number(t));
  JsonObject f;
  f.num("seed", static_cast<double>(seed));
  f.str("trace_hash", hex64(d.trace_hash));
  f.num("core_hours", d.core_hours);
  f.num("switch_count", static_cast<double>(d.switches));
  f.raw("switch_times", json_array(times));
  f.raw("p95_s", p95.text());
  return f.text();
}

/// Simulated days per run (seeds seed, seed + 1000, seed + 2000).
constexpr std::uint64_t kDays = 3;

struct Failures {
  std::vector<std::string> list;

  void add(const std::string& what) {
    list.push_back(what);
    std::cerr << "FAIL: " << what << "\n";
  }
};

// ---------------------------------------------------------------------------
// Host speed. A shared host's speed drifts by tens of percent over seconds
// to minutes, far more than the changes the benchmark must resolve. Every
// timed interval is therefore bracketed by a fixed reference loop (code of
// this file only, so no change under src/ moves it), and reported in
// reference seconds: host seconds x kReferenceLoopS / (mean loop time
// around the interval). On a host where the loop takes kReferenceLoopS,
// reference and host seconds agree.

constexpr double kReferenceLoopS = 0.025;

/// Memory of one reference loop, allocated once so that the loop itself
/// never allocates or faults pages in.
struct ReferenceState {
  struct Event {
    double t;
    std::uint32_t id;
    bool operator<(const Event& o) const { return t > o.t; }
  };
  std::vector<Event> heap;
  std::vector<double> table = std::vector<double>(std::size_t{1} << 15);
  std::vector<double> slab = std::vector<double>(std::size_t{1} << 18, 1.0);
};

/// Event-heap, table and random-access work of a fixed size, the kind of
/// memory traffic a discrete-event run makes. Returns its host seconds.
double reference_loop(ReferenceState& st) {
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const auto t0 = Clock::now();
  st.heap.clear();
  std::fill(st.table.begin(), st.table.end(), 0.0);
  for (std::uint32_t i = 0; i < 4096; ++i) {
    st.heap.push_back({static_cast<double>(next() % 1000), i});
    std::push_heap(st.heap.begin(), st.heap.end());
  }
  const std::size_t table_mask = st.table.size() - 1;
  const std::size_t slab_mask = st.slab.size() - 1;
  double sink = 0.0;
  for (int k = 0; k < 220000; ++k) {
    std::pop_heap(st.heap.begin(), st.heap.end());
    const auto e = st.heap.back();
    const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
    st.heap.back() = {e.t - std::log(u + 1e-12), e.id};
    std::push_heap(st.heap.begin(), st.heap.end());
    st.table[(e.id * 2654435761u) & table_mask] += u;
    sink += st.slab[next() & slab_mask] * u;
  }
  const double host_s = seconds_since(t0);
  // Keep the work observable so it cannot be optimised away.
  if (!(sink >= 0.0)) std::cerr << sink << "\n";
  return host_s;
}

class HostSpeed {
 public:
  /// Run `f` between two rounds of reference loops, one loop per thread `f`
  /// keeps busy; returns the factor that turns its host seconds into
  /// reference seconds.
  template <typename F>
  double bracket(F&& f, unsigned threads = 1) {
    const double before = loops(threads);
    f();
    const double after = loops(threads);
    loops_s_.push_back(before);
    loops_s_.push_back(after);
    return 2.0 * kReferenceLoopS / (before + after);
  }
  /// Median host seconds of a reference loop over the run.
  [[nodiscard]] double loop_s() const { return median(loops_s_); }

 private:
  /// `threads` reference loops at once; their mean host seconds. The first
  /// use of a thread count first runs rounds for half a second and until
  /// two agree within 10%: idle virtual CPUs take a moment to come up to
  /// speed.
  double loops(unsigned threads) {
    if (states_.size() >= threads) return round(threads);
    while (states_.size() < threads) {
      states_.push_back(std::make_unique<ReferenceState>());
    }
    const auto t0 = Clock::now();
    double last = round(threads);
    for (int i = 0; i < 100; ++i) {
      const double now = round(threads);
      if (seconds_since(t0) > 0.5 && std::abs(now - last) < 0.1 * last) break;
      last = now;
    }
    return round(threads);
  }

  double round(unsigned threads) {
    if (threads <= 1) return reference_loop(*states_.front());
    std::vector<double> host_s(threads);
    {
      std::vector<std::jthread> pool;
      for (unsigned i = 0; i < threads; ++i) {
        pool.emplace_back([this, &host_s, i] {
          host_s[i] = reference_loop(*states_[i]);
        });
      }
    }
    return mean(host_s);
  }

  std::vector<std::unique_ptr<ReferenceState>> states_;
  std::vector<double> loops_s_;
};

/// Run `call` `repeat` times between reference loops on `threads` threads;
/// add its wall and CPU seconds per call, in reference seconds, to `t` and
/// return the wall part.
template <typename F>
double timed_call(HostSpeed& speed, unsigned threads, int repeat,
                  SetupTimes& t, F&& call) {
  double host_wall = 0.0;
  double host_cpu = 0.0;
  const double scale = speed.bracket(
      [&] {
        const double cpu0 = cpu_seconds();
        const auto t0 = Clock::now();
        for (int r = 0; r < repeat; ++r) call();
        host_wall = seconds_since(t0) / repeat;
        host_cpu = (cpu_seconds() - cpu0) / repeat;
      },
      threads);
  t.wall_s += host_wall * scale;
  t.cpu_s += host_cpu * scale;
  t.host_wall_s += host_wall;
  return host_wall * scale;
}

/// One set-up: profile the meters and the first `max_services` services the
/// workload needs and, when that is all of them, build the scenario. Each
/// profiling call is timed on its own; the scenario build, which takes
/// microseconds, is timed over `build_repeat` repetitions (0: not built).
Artifacts run_setup(Workload& w, const exp::ProfilingConfig& cfg,
                    std::size_t max_services, int build_repeat,
                    HostSpeed& speed, SetupTimes* times) {
  Artifacts a;
  if (w.needs_meters()) {
    times->meters_s = timed_call(speed, cfg.threads, 1, *times, [&] {
      a.calibration = exp::profile_meters(cluster_config(), cfg);
    });
  }
  const auto profiles = w.profiled();
  const std::size_t n = std::min(max_services, profiles.size());
  for (std::size_t i = 0; i < n; ++i) {
    times->service_s[profiles[i].name] =
        timed_call(speed, cfg.threads, 1, *times, [&] {
          a.services.push_back(exp::profile_service(
              profiles[i], cluster_config(), a.calibration, cfg));
        });
  }
  if (n == profiles.size() && build_repeat > 0) {
    timed_call(speed, 1, build_repeat, *times, [&] { w.build(a); });
  }
  return a;
}

/// Repetitions that make one timed build of the scenario last at least a
/// millisecond.
int build_repeat_for(Workload& w, const Artifacts& a) {
  int repeat = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (int r = 0; r < repeat; ++r) w.build(a);
    if (seconds_since(t0) >= 1e-3 || repeat >= (1 << 20)) return repeat;
    repeat *= 2;
  }
}

std::string check_artifacts(const Workload& w, const Artifacts& a) {
  if (w.needs_meters()) {
    if (!a.calibration.complete()) return "meter calibration incomplete";
    if (!curves_monotone(a.calibration)) return "a meter curve is not monotone";
  }
  for (const auto& s : a.services) {
    if (!s.complete()) return "service artifacts incomplete";
  }
  return {};
}

/// Set-up samples, in reference seconds unless named host_.
struct SetupPhase {
  int build_repeat = 0;  ///< builds per timed build (0 until sized)
  std::vector<double> wall_s;  ///< one entry per set-up
  std::vector<double> cpu_s;
  std::vector<double> host_wall_s;
  SetupTimes first;
  Artifacts artifacts;  ///< of the first set-up
};

/// One full, timed set-up. Every set-up must profile the artifacts of the
/// first.
void sample_setup(Workload& w, const exp::ProfilingConfig& cfg, bool verbose,
                  SetupPhase& phase, HostSpeed& speed, Failures& failures) {
  if (phase.build_repeat == 0) {
    // The first set-up also sizes the build repetitions before timing the
    // build.
    SetupTimes t;
    Artifacts a = run_setup(w, cfg, SIZE_MAX, 0, speed, &t);
    const std::string bad = check_artifacts(w, a);
    if (!bad.empty()) failures.add(bad);
    phase.build_repeat = build_repeat_for(w, a);
    timed_call(speed, 1, phase.build_repeat, t, [&] { w.build(a); });
    phase.artifacts = std::move(a);
    phase.first = t;
    phase.wall_s.push_back(t.wall_s);
    phase.cpu_s.push_back(t.cpu_s);
    phase.host_wall_s.push_back(t.host_wall_s);
  } else {
    SetupTimes t;
    const Artifacts a =
        run_setup(w, cfg, SIZE_MAX, phase.build_repeat, speed, &t);
    if (!same_artifacts(phase.artifacts, a)) {
      failures.add("set-up " + std::to_string(phase.wall_s.size() + 1) +
                   " profiled different artifacts than set-up 1");
    }
    phase.wall_s.push_back(t.wall_s);
    phase.cpu_s.push_back(t.cpu_s);
    phase.host_wall_s.push_back(t.host_wall_s);
  }
  if (verbose) {
    std::cerr << "set-up " << phase.wall_s.size() << ": "
              << phase.host_wall_s.back() << " s wall ("
              << phase.wall_s.back() << " reference s), "
              << phase.cpu_s.back() << " reference CPU-s\n";
  }
}

/// The traced set-up: the meters and the first service profiled on one
/// thread with a profiler attached to it. Only the pool and fair-share
/// scopes inside the profiling cells report; profiling engines carry no
/// profiler hook, so the rest is engine and load generation.
struct TracedSetup {
  double wall_s = 0.0;
  double fair_share_s = 0.0;
  double serverless_pool_s = 0.0;
  int cells = 0;
};

TracedSetup run_traced_setup(Workload& w, const Artifacts& reference,
                             HostSpeed& speed, Failures& failures) {
  TracedSetup out;
  if (!w.needs_meters() && w.profiled().empty()) return out;
  obs::Profiler prof;
  SetupTimes t;
  const auto cfg = profiling_config(1);
  {
    obs::ProfilerAttach attach(&prof);
    const Artifacts a = run_setup(w, cfg, 1, 1, speed, &t);
    if (!same_artifacts(reference, a)) {
      failures.add("single-threaded set-up profiled different artifacts");
    }
  }
  // Scale the profiler's host seconds by the set-up's overall factor.
  const double scale = t.host_wall_s > 0.0 ? t.wall_s / t.host_wall_s : 1.0;
  const auto rep = prof.report();
  out.wall_s = t.wall_s;
  out.fair_share_s =
      scale * rep.self_s[static_cast<std::size_t>(obs::ProfDomain::kFairShare)];
  out.serverless_pool_s =
      scale *
      rep.self_s[static_cast<std::size_t>(obs::ProfDomain::kServerlessPool)];
  out.cells = setup_cells(cfg, w.needs_meters(),
                          std::min<std::size_t>(1, w.profiled().size()));
  std::cerr << "traced set-up (meters + first service, 1 thread): "
            << t.host_wall_s << " s wall\n";
  return out;
}

/// Every timed day, normalised by its event count so days of different
/// seeds pool into one sample set. Times in reference seconds unless named
/// host_.
struct DayPhase {
  std::vector<DayOutcome> first;  ///< per seed, the first untraced run
  std::vector<double> wall_per_event;
  std::vector<double> cpu_per_event;
  std::vector<double> host_wall_per_event;
  std::vector<double> traced_wall_per_event;
  std::array<double, obs::kProfDomainCount> self_s{};  ///< Σ traced runs
  std::array<double, obs::kProfDomainCount> calls{};
  double attributed_s = 0.0;
  double traced_wall_s = 0.0;
  int traced_runs = 0;
  int passes = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  [[nodiscard]] double mean_events() const {
    double total = 0.0;
    for (const auto& d : first) total += static_cast<double>(d.events);
    return first.empty() ? 0.0 : total / static_cast<double>(first.size());
  }
};

/// Passes over the seeded days until they have taken `seconds` (set-ups
/// timed in between do not count). The first pass records each seed's
/// reference outcome; every later run must reproduce it exactly. The very
/// first day only warms caches and the allocator and is not timed. Untraced
/// mode makes at least one repeat pass and calls `after_timed_day` after
/// each timed day; traced mode's repeat passes run each day untraced and
/// traced, alternating which goes first.
DayPhase run_days(const Workload& w, const std::vector<std::uint64_t>& seeds,
                  const Args& args, HostSpeed& speed, Failures& failures,
                  const std::function<void()>& after_timed_day) {
  DayPhase phase;
  phase.first.resize(seeds.size());
  double day_seconds = 0.0;
  while (phase.passes < 2 || day_seconds < args.seconds) {
    const bool reference = phase.passes == 0;
    const int legs = args.trace && !reference ? 2 : 1;
    const double pass_start = day_seconds;
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      for (int leg = 0; leg < legs; ++leg) {
        const bool traced = legs == 2 && (leg == phase.passes % 2);
        std::unique_ptr<obs::Profiler> prof;
        if (traced) prof = std::make_unique<obs::Profiler>();
        DayOutcome d;
        double host_wall = 0.0;
        double host_cpu = 0.0;
        const double scale = speed.bracket([&] {
          const double cpu0 = cpu_seconds();
          const auto t0 = Clock::now();
          d = w.run_day(seeds[i], prof.get(), false);
          host_wall = seconds_since(t0);
          host_cpu = cpu_seconds() - cpu0;
        });
        const double wall = host_wall * scale;
        const double cpu = host_cpu * scale;
        day_seconds += host_wall;
        ++phase.attempted;
        const std::string tag = "seed " + std::to_string(seeds[i]) + ": ";
        bool ok = d.failure.empty();
        if (!ok) failures.add(tag + d.failure);
        if (!reference && !same_behaviour(phase.first[i], d)) {
          ok = false;
          failures.add(tag + (traced ? "traced run differs from the untraced"
                                     : "repeat differs from the first run"));
        }
        if (!ok) ++phase.failed;
        const auto events =
            static_cast<double>(std::max<std::uint64_t>(1, d.events));
        if (reference) phase.first[i] = std::move(d);
        if (reference && i == 0) continue;  // warm-up, not timed
        if (traced) {
          const auto rep = prof->report();
          phase.traced_wall_per_event.push_back(wall / events);
          for (std::size_t k = 0; k < obs::kProfDomainCount; ++k) {
            phase.self_s[k] += scale * rep.self_s[k];
            phase.calls[k] += static_cast<double>(rep.count[k]);
          }
          phase.attributed_s += scale * rep.attributed_s();
          phase.traced_wall_s += wall;
          ++phase.traced_runs;
        } else {
          phase.wall_per_event.push_back(wall / events);
          phase.cpu_per_event.push_back(cpu / events);
          phase.host_wall_per_event.push_back(host_wall / events);
          after_timed_day();
        }
      }
    }
    std::cerr << "pass " << phase.passes + 1 << ": "
              << day_seconds - pass_start << " s of days\n";
    ++phase.passes;
  }
  return phase;
}

/// Untimed counting days (trace mode): one per seed, with the bookkeeping
/// that exposes user-facing cold starts. Must not move the trace either.
double counting_days(const Workload& w, const std::vector<std::uint64_t>& seeds,
                     DayPhase& phase, Failures& failures) {
  std::vector<double> cold;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const DayOutcome d = w.run_day(seeds[i], nullptr, true);
    ++phase.attempted;
    if (!same_behaviour(phase.first[i], d)) {
      ++phase.failed;
      failures.add("seed " + std::to_string(seeds[i]) +
                   ": counting run differs from the first run");
    }
    cold.push_back(static_cast<double>(d.cold_starts));
  }
  return mean(cold);
}

template <typename Field>
double per_day(const DayPhase& phase, Field field) {
  std::vector<double> v;
  for (const auto& d : phase.first) v.push_back(static_cast<double>(field(d)));
  return mean(v);
}

void end_to_end_metrics(JsonObject& m, const SetupPhase& setup,
                        const DayPhase& days) {
  // Pooled over the days: per-series latencies, misses and judged queries.
  std::map<std::string, std::pair<double, std::vector<double>>> pooled;
  std::uint64_t misses = 0;
  std::uint64_t judged = 0;
  for (const auto& d : days.first) {
    for (const auto& s : d.series) {
      auto& slot = pooled[s.name];
      slot.first = s.target_s;
      slot.second.insert(slot.second.end(), s.latencies.begin(),
                         s.latencies.end());
    }
    misses += d.misses();
    judged += d.judged();
  }
  double worst = 0.0;
  for (const auto& [name, slot] : pooled) {
    worst = std::max(worst, p95_of(slot.second) / slot.first);
  }
  const double events = days.mean_events();
  const double n_days = static_cast<double>(days.first.size());
  m.metric("setup_s", median(setup.wall_s), "s");
  m.metric("run_wall_s", median(days.wall_per_event) * events, "s");
  m.metric("cpu_s",
           median(setup.cpu_s) +
               n_days * median(days.cpu_per_event) * events,
           "s");
  m.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  m.metric("core_hours",
           per_day(days, [](const DayOutcome& d) { return d.core_hours; }),
           "core-h");
  m.metric("memory_gb_hours",
           per_day(days, [](const DayOutcome& d) { return d.memory_gb_hours; }),
           "GB-h");
  m.metric("p95_over_target", worst, "ratio");
  m.metric("qos_miss_frac",
           judged > 0 ? static_cast<double>(misses) / static_cast<double>(judged)
                      : 0.0,
           "fraction");
}

struct Memory {
  double baseline_mb = 0.0;
  double setup_mb = 0.0;
  double run_mb = 0.0;
};

void per_layer_metrics(JsonObject& m, const Workload& w,
                       const exp::ProfilingConfig& cfg,
                       const SetupPhase& setup, const TracedSetup& traced,
                       const DayPhase& days, double cold_starts,
                       const Memory& mem, Failures& failures) {
  // Set-up layers, from the parallel set-up.
  const SetupTimes& st = setup.first;
  double profiling_wall = st.meters_s;
  m.metric("profiling.meters_s", st.meters_s, "s");
  for (const auto& p : workload::functionbench_suite()) {
    const auto it = st.service_s.find(p.name);
    const double s = it == st.service_s.end() ? 0.0 : it->second;
    profiling_wall += s;
    m.metric("profiling." + p.name + "_s", s, "s");
  }
  m.metric("profiling.cpu_s", st.cpu_s, "s");
  m.metric("profiling.efficiency",
           profiling_wall > 0.0
               ? st.cpu_s / (profiling_wall * static_cast<double>(cfg.threads))
               : 0.0,
           "ratio");
  m.metric("profiling.cells",
           setup_cells(cfg, w.needs_meters(), w.profiled().size()), "count");
  m.metric("profiling.threads", cfg.threads, "count");
  m.metric("profiling.traced_s", traced.wall_s, "s");
  m.metric("profiling.traced_cells", traced.cells, "count");
  m.metric("profiling.fair_share_self_s", traced.fair_share_s, "s");
  m.metric("profiling.serverless_pool_self_s", traced.serverless_pool_s, "s");

  // Run layers: per-day means over the traced runs.
  const double runs = std::max(1, days.traced_runs);
  auto self = [&](obs::ProfDomain d) {
    return days.self_s[static_cast<std::size_t>(d)] / runs;
  };
  auto calls = [&](obs::ProfDomain d) {
    return days.calls[static_cast<std::size_t>(d)] / runs;
  };
  for (const auto d :
       {obs::ProfDomain::kController, obs::ProfDomain::kFairShare,
        obs::ProfDomain::kIaasPool, obs::ProfDomain::kServerlessPool,
        obs::ProfDomain::kMonitor}) {
    const std::string name = obs::to_string(d);
    m.metric(name + ".self_s", self(d), "s");
    m.metric(name + ".calls", calls(d), "count");
  }
  const double events = days.mean_events();
  const double engine = self(obs::ProfDomain::kEngine);
  m.metric("engine.self_s", engine, "s");
  m.metric("engine.events", events, "count");
  m.metric("engine.ns_per_event", events > 0.0 ? 1e9 * engine / events : 0.0,
           "ns");
  m.metric("harness.self_s", self(obs::ProfDomain::kHarness), "s");
  m.metric("stats.self_s", self(obs::ProfDomain::kStats), "s");
  const double coverage =
      days.traced_wall_s > 0.0 ? days.attributed_s / days.traced_wall_s : 0.0;
  m.metric("trace.unattributed_s",
           (days.traced_wall_s - days.attributed_s) / runs, "s");
  m.metric("trace.coverage", coverage, "ratio");
  m.metric("trace.overhead_frac",
           median(days.traced_wall_per_event) / median(days.wall_per_event) -
               1.0,
           "ratio");
  if (coverage < 0.90) {
    failures.add("traced runs attribute " + std::to_string(coverage) +
                 " of their wall time to profiler domains (need >= 0.90)");
  }

  // Simulated counts, per day.
  m.metric("sim.queries",
           per_day(days, [](const DayOutcome& d) { return d.queries; }),
           "count");
  m.metric("sim.cold_starts", cold_starts, "count");
  m.metric("sim.switches",
           per_day(days, [](const DayOutcome& d) { return d.switches; }),
           "count");
  m.metric("sim.switch_aborts",
           per_day(days, [](const DayOutcome& d) { return d.switch_aborts; }),
           "count");
  m.metric("sim.switch_retries",
           per_day(days, [](const DayOutcome& d) { return d.switch_retries; }),
           "count");
  m.metric("sim.prewarm_denied",
           per_day(days, [](const DayOutcome& d) { return d.prewarm_denied; }),
           "count");
  m.metric("sim.pool_evictions",
           per_day(days, [](const DayOutcome& d) { return d.pool_evictions; }),
           "count");
  m.metric("sim.peak_pool_containers", per_day(days, [](const DayOutcome& d) {
             return d.peak_pool_containers;
           }),
           "count");
  m.metric("mem.baseline_rss_mb", mem.baseline_mb, "MiB");
  m.metric("mem.setup_rss_mb", mem.setup_mb, "MiB");
  m.metric("mem.run_rss_mb", mem.run_mb, "MiB");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) return usage();
  auto w = make_workload(args.workload);
  if (!w) return usage();

  const bool profiles = w->needs_meters() || !w->profiled().empty();
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const auto cfg = profiling_config(std::min(4u, hw));

  Failures failures;
  HostSpeed speed;
  Memory mem;
  mem.baseline_mb = rss_mb();
  SetupPhase setup;
  sample_setup(*w, cfg, profiles, setup, speed, failures);
  TracedSetup traced;
  if (args.trace) {
    traced = run_traced_setup(*w, setup.artifacts, speed, failures);
  }
  mem.setup_mb = rss_mb();

  // Untraced runs time more set-ups between their timed days: three in all
  // when set-up profiles, one sample after every timed day when it only
  // builds the scenario.
  constexpr std::size_t kProfilingSetups = 3;
  auto more_setups = [&] {
    if (args.trace) return;
    if (!profiles || setup.wall_s.size() < kProfilingSetups) {
      sample_setup(*w, cfg, profiles, setup, speed, failures);
    }
  };
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < kDays; ++i) seeds.push_back(args.seed + 1000 * i);
  DayPhase phase = run_days(*w, seeds, args, speed, failures, more_setups);
  mem.run_mb = rss_mb();
  while (!args.trace && profiles && setup.wall_s.size() < kProfilingSetups) {
    sample_setup(*w, cfg, profiles, setup, speed, failures);
  }
  const double cold_starts =
      args.trace ? counting_days(*w, seeds, phase, failures) : 0.0;

  JsonObject metrics;
  if (args.trace) {
    per_layer_metrics(metrics, *w, cfg, setup, traced, phase, cold_starts,
                      mem, failures);
    metrics.metric("host.ref_loop_s", speed.loop_s(), "s");
  } else {
    end_to_end_metrics(metrics, setup, phase);
  }

  std::vector<std::string> failure_list;
  for (const auto& f : failures.list) failure_list.push_back(JsonObject::quote(f));
  JsonObject checks;
  checks.boolean("passed", failures.list.empty());
  checks.raw("failures", json_array(failure_list));

  JsonObject out;
  out.str("workload", args.workload);
  out.num("seed", static_cast<double>(args.seed));
  out.num("days", kDays);
  out.num("passes", phase.passes);
  out.num("setups", static_cast<double>(setup.wall_s.size()));
  out.num("attempted", static_cast<double>(phase.attempted));
  out.num("failed", static_cast<double>(phase.failed));
  out.raw("checks", checks.text());
  out.raw("metrics", metrics.text());
  // The unscaled host seconds, for the record.
  JsonObject host;
  host.num("ref_loop_s", speed.loop_s());
  host.num("setup_s", median(setup.host_wall_s));
  host.num("run_wall_s",
           median(phase.host_wall_per_event) * phase.mean_events());
  out.raw("host", host.text());
  out.raw("fingerprint", fingerprint(phase.first.front(), seeds.front()));
  std::cout << out.text() << std::endl;
  return 0;
}
