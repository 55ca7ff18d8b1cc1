// Self-profiling layer: sim-time-bucketed wall-time attribution for the
// simulator itself.
//
// The repository's simulations are deterministic functions of a seed; this
// profiler answers the orthogonal question of where *wall time* goes while
// computing them — engine dispatch vs. fair-share recompute vs. monitor and
// controller ticks vs. pool bookkeeping vs. stats — so speed work (the
// ROADMAP's flow-level fast-forward mode) targets measured cost, not guesses.
//
// Design (DESIGN.md §13):
//   * Scoped domain timers. `AMOEBA_PROF_SCOPE(kFairShare)` opens a frame on
//     the calling thread's accumulator; when no profiler is attached to the
//     thread it is a single null check. Time is attributed by *segment
//     accounting*: every transition (scope push/pop, sim-time bucket change)
//     reads the clock once (TSC on x86-64, steady clock elsewhere; see
//     prof_now_raw) and charges the elapsed segment to the domain on top of
//     the stack. Self time therefore never double-counts
//     nested scopes, and a domain's `total` is the wall time with that
//     domain anywhere on the stack.
//   * Sim-time buckets. The engine calls `engine_dispatch(now)` per event
//     (pure arithmetic — the clock is only read when the bucket index
//     actually changes), so wall-time segments land in the simulation-time
//     bucket they were spent on. The bucket width is one contention-monitor
//     period (5 s), making "fair-share recompute dominates during
//     the switch storm at t≈900 s" directly visible.
//   * Per-thread accumulators, merged under the annotated common::Mutex.
//     attach_current_thread()/detach_current_thread() bracket a thread's
//     participation (ProfilerAttach is the RAII form); `report()` is
//     coordinator-only, like MetricsRegistry::take_snapshot.
//   * Determinism. The profiler reads simulation time but never schedules
//     events, draws randomness, or feeds wall time back into the simulation,
//     so attaching it leaves engine trace hashes bit-identical (enforced by
//     tests/integration/determinism_test.cpp).
//
// This header is the single place in src/ allowed to read the wall clock;
// each read carries the lint escape `// lint: wallclock-ok`.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/mutex.hpp"

namespace amoeba::obs {

/// Cost domains the simulator attributes wall time to.
enum class ProfDomain : std::uint8_t {
  kEngine = 0,       ///< event dispatch + heap maintenance (run loop)
  kFairShare,        ///< FairShareResource bank/reallocate/completion
  kMonitor,          ///< contention-monitor periods (probe bookkeeping)
  kController,       ///< deployment-controller ticks + runtime control path
  kServerlessPool,   ///< container pool bookkeeping (start/evict/expire)
  kIaasPool,         ///< IaaS platform bookkeeping (boot/submit/drain)
  kStats,            ///< latency sample / quantile / snapshot updates
  kExport,           ///< obs exporters (including the profiler's own)
  kHarness,          ///< scenario setup/teardown outside the event loop
};

inline constexpr std::size_t kProfDomainCount = 9;

[[nodiscard]] const char* to_string(ProfDomain d) noexcept;

namespace detail {

/// One thread's accumulator. Owned by the Profiler, mutated only by the
/// thread it is attached to; read by the coordinator in report() after the
/// owning thread detached or quiesced.
struct ProfThreadState {
  static constexpr unsigned kMaxDepth = 32;

  struct Frame {
    std::uint64_t start = 0;  // raw clock units (prof_now_raw)
    ProfDomain domain = ProfDomain::kEngine;
  };
  /// Accumulated time in *raw clock units* — TSC ticks on x86-64,
  /// nanoseconds elsewhere. report() measures the raw-units-per-second
  /// rate against the steady clock over the whole session and converts
  /// once, so the hot path never pays the units conversion.
  struct Accum {
    double self = 0.0;
    double total = 0.0;
    std::uint64_t count = 0;
  };

  std::array<Frame, kMaxDepth> stack;
  unsigned depth = 0;
  std::uint32_t bucket = 0;
  std::uint64_t last_mark = 0;  // raw clock units (prof_now_raw)
  std::uint64_t dropped_scopes = 0;
  double inv_bucket_width = 0.0;  // 1 / Profiler::kBucketWidthS
  /// row(bucket).data(), refreshed whenever `bucket` changes — buckets can
  /// only grow there, so the pointer stays valid between changes and the
  /// hot flush path skips the vector bounds logic.
  double* cur_row = nullptr;
  std::array<Accum, kProfDomainCount> totals{};
  std::vector<std::array<double, kProfDomainCount>> buckets;

  std::array<double, kProfDomainCount>& row(std::uint32_t b) {
    if (buckets.size() <= b) buckets.resize(b + 1, {});
    return buckets[b];
  }

  void set_bucket(std::uint32_t b) {
    bucket = b;
    cur_row = row(b).data();
  }

  /// Charge the wall segment since last_mark to the innermost open
  /// domain (time outside every scope stays unattributed).
  void flush_segment(std::uint64_t now) {
    if (depth > 0) {
      const auto d = static_cast<std::size_t>(stack[depth - 1].domain);
      const auto dt = static_cast<double>(now - last_mark);
      totals[d].self += dt;
      cur_row[d] += dt;
    }
    last_mark = now;
  }

  /// Returns false (and counts a drop) on stack overflow.
  bool push(ProfDomain d, std::uint64_t now) {
    flush_segment(now);
    if (depth == kMaxDepth) {
      ++dropped_scopes;
      return false;
    }
    stack[depth++] = Frame{now, d};
    return true;
  }

  void pop(std::uint64_t now) {
    flush_segment(now);
    const Frame f = stack[--depth];
    const auto d = static_cast<std::size_t>(f.domain);
    ++totals[d].count;
    // `total` is wall time with the domain anywhere on the stack: only the
    // outermost frame of a same-domain nest contributes, so recursive
    // instrumentation (controller tick inside the runtime's control scope)
    // cannot double-count.
    for (unsigned i = 0; i < depth; ++i) {
      if (stack[i].domain == f.domain) return;
    }
    totals[d].total += static_cast<double>(now - f.start);
  }
};

// `constinit` (here and at the definition) tells every translation unit the
// variable needs no dynamic initialisation, so reads are direct TLS loads.
// Without it GCC routes them through a TLS wrapper function, which UBSan
// flags as a null-pointer load.
extern constinit thread_local ProfThreadState* t_prof_state;

[[nodiscard]] inline std::uint64_t prof_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now()  // lint: wallclock-ok the profiler attributes host wall time; it never feeds back into sim state
              .time_since_epoch())
          .count());
}

/// Hot-path timestamp in *raw clock units*. On x86-64 this is the TSC
/// (~3x cheaper than the steady clock's vDSO call — two of these run per
/// scope, and hot scopes fire several times per simulated query, so the
/// read dominates the profiler's overhead budget); elsewhere it falls back
/// to steady-clock nanoseconds. Raw units are converted to seconds once in
/// Profiler::report() against a steady-clock baseline, which also absorbs
/// the TSC frequency. Assumes the invariant TSC of every x86-64 CPU this
/// decade; cross-core skew is nanoseconds, far below scope granularity.
[[nodiscard]] inline std::uint64_t prof_now_raw() noexcept {
#if defined(__x86_64__)
  return __builtin_ia32_rdtsc();
#else
  return prof_now_ns();
#endif
}

}  // namespace detail

/// Merged, exportable view of one profiling session (see report()).
struct ProfileReport {
  double bucket_width_s = 0.0;
  double wall_s = 0.0;  ///< profiler construction -> report(), wall seconds
  std::uint32_t threads = 0;
  std::uint64_t dropped_scopes = 0;
  std::vector<std::string> domains;     ///< column names, fixed order
  std::vector<double> self_s;           ///< per domain, aligned with domains
  std::vector<double> total_s;
  std::vector<std::uint64_t> count;
  struct Bucket {
    std::uint32_t index = 0;
    double sim_t0_s = 0.0;
    std::vector<double> self_s;  ///< aligned with domains
  };
  std::vector<Bucket> buckets;  ///< sparse: all-zero rows omitted

  /// Σ self across domains — the wall time the profiler can attribute.
  [[nodiscard]] double attributed_s() const;
};

class Profiler {
 public:
  /// Sim-time bucket width: one monitor period, so bucket rows line up
  /// with control-loop ticks.
  static constexpr double kBucketWidthS = 5.0;

  Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Open a fresh accumulator for the calling thread and make it the
  /// target of AMOEBA_PROF_SCOPE / engine hooks on this thread.
  void attach_current_thread() AMOEBA_EXCLUDES(mutex_);

  /// Stop profiling on the calling thread. The accumulator is retained for
  /// report(). Requires every scope opened on this thread to be closed.
  void detach_current_thread() AMOEBA_EXCLUDES(mutex_);

  /// Engine hooks (sim::Engine calls these when a profiler is attached to
  /// it). They operate on the *calling thread's* accumulator, so the
  /// engine's profiler and the thread's attached profiler should be the
  /// same object. run_begin/run_end bracket the event loop as the kEngine
  /// domain; dispatch advances the sim-time bucket — pure arithmetic, the
  /// clock is read only when the bucket index changes.
  void engine_run_begin() noexcept {
    if (auto* s = detail::t_prof_state) {
      s->push(ProfDomain::kEngine, detail::prof_now_raw());
    }
  }
  void engine_run_end() noexcept {
    if (auto* s = detail::t_prof_state) {
      if (s->depth > 0) s->pop(detail::prof_now_raw());
    }
  }
  void engine_dispatch(double sim_now) noexcept {
    if (auto* s = detail::t_prof_state) {
      const auto b = static_cast<std::uint32_t>(sim_now * s->inv_bucket_width);
      if (b != s->bucket) {
        // Flush charges the segment to the *old* bucket, then the row
        // pointer moves to the new one.
        s->flush_segment(detail::prof_now_raw());
        s->set_bucket(b);
      }
    }
  }

  /// Merge every thread accumulator into one report. Coordinator-only: no
  /// attached thread may be inside a scope while this runs (the calling
  /// thread may stay attached between scopes).
  [[nodiscard]] ProfileReport report() const AMOEBA_EXCLUDES(mutex_);

 private:
  std::uint64_t epoch_ns_;   ///< steady clock at construction (wall_s base)
  std::uint64_t epoch_raw_;  ///< prof_now_raw at construction (units base)
  mutable common::Mutex mutex_;
  std::vector<std::unique_ptr<detail::ProfThreadState>> states_
      AMOEBA_GUARDED_BY(mutex_);
};

/// RAII attach/detach; null profiler = disabled (no-op).
class ProfilerAttach {
 public:
  explicit ProfilerAttach(Profiler* p) : prof_(p) {
    if (prof_ != nullptr) prof_->attach_current_thread();
  }
  ~ProfilerAttach() {
    if (prof_ != nullptr) prof_->detach_current_thread();
  }
  ProfilerAttach(const ProfilerAttach&) = delete;
  ProfilerAttach& operator=(const ProfilerAttach&) = delete;

 private:
  Profiler* prof_;
};

/// Scoped domain timer; a single null check when no profiler is attached
/// to the current thread.
class ProfScope {
 public:
  explicit ProfScope(ProfDomain d) noexcept {
    detail::ProfThreadState* s = detail::t_prof_state;
    if (s == nullptr) return;
    // Same-domain nest (reallocate() inside on_completion_event(), pool
    // helpers calling each other): segment accounting would charge the same
    // domain either way and only the outermost frame accrues total, so the
    // inner frame is pure overhead — skip it without reading the clock.
    if (s->depth > 0 && s->stack[s->depth - 1].domain == d) return;
    if (s->push(d, detail::prof_now_raw())) state_ = s;
  }
  ~ProfScope() {
    if (state_ != nullptr) state_->pop(detail::prof_now_raw());
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  detail::ProfThreadState* state_ = nullptr;
};

#define AMOEBA_PROF_CONCAT_(a, b) a##b
#define AMOEBA_PROF_CONCAT(a, b) AMOEBA_PROF_CONCAT_(a, b)
/// Time the enclosing scope under `domain` (a ProfDomain enumerator name).
#define AMOEBA_PROF_SCOPE(domain)                                     \
  ::amoeba::obs::ProfScope AMOEBA_PROF_CONCAT(amoeba_prof_scope_,     \
                                              __LINE__) {             \
    ::amoeba::obs::ProfDomain::domain                                 \
  }

/// JSONL profile stream: one `profile_meta` line, one `profile_total`
/// line, then one `profile_bucket` line per non-empty sim-time bucket.
/// Every line parses with obs::parse_json.
void write_profile_jsonl(const ProfileReport& report, std::ostream& out);

/// Chrome trace_event counter stream ("prof:<domain>" counters, one sample
/// per bucket at its sim-time start) for ui.perfetto.dev.
void write_profile_chrome_trace(const ProfileReport& report,
                                std::ostream& out);

/// Human-readable self/total per-domain table, sorted by self time, with
/// an attributed-vs-wall coverage footer.
void write_profile_table(const ProfileReport& report, std::ostream& out);

}  // namespace amoeba::obs
