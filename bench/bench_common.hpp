// Shared setup for the figure/table benches.
//
// Every bench binary runs standalone (`for b in build/bench/*; do $b;
// done`) and profiles in memory (exp::profile_meters /
// exp::profile_service) on the Table II cluster (exp::default_cluster)
// with the shared profiling grid below.
#pragma once

#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "exp/profiling.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "exp/table.hpp"
#include "obs/exporters.hpp"
#include "obs/profiler.hpp"
#include "obs/json.hpp"

namespace amoeba::bench {

/// Ordered flat JSON object writer for the machine-readable BENCH_*.json
/// artifacts (events/sec, wall-clock, speedups). Insertion order is
/// preserved so the artifacts diff cleanly across runs.
class BenchJson {
 public:
  void add(const std::string& key, double value) {
    members_.emplace_back(key, obs::json_number(value));
  }
  void add(const std::string& key, bool value) {
    members_.emplace_back(key, value ? "true" : "false");
  }
  void add(const std::string& key, const std::string& value) {
    // Built piecewise: `"\"" + s + "\""` trips GCC 12's -Wrestrict false
    // positive through the rvalue operator+ overload.
    std::string quoted;
    quoted += '"';
    quoted += obs::json_escape(value);
    quoted += '"';
    members_.emplace_back(key, std::move(quoted));
  }

  [[nodiscard]] std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < members_.size(); ++i) {
      if (i > 0) out += ",";
      out += "\n  \"";
      out += obs::json_escape(members_[i].first);
      out += "\": ";
      out += members_[i].second;
    }
    out += "\n}\n";
    return out;
  }

  /// Write to `path`; returns false (with a note on stderr) on I/O failure.
  [[nodiscard]] bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      std::cerr << "BENCH json: cannot open " << path << "\n";
      return false;
    }
    out << str();
    return static_cast<bool>(out);
  }

 private:
  std::vector<std::pair<std::string, std::string>> members_;
};

/// Which members of an existing BENCH file merge_existing keeps.
enum class KeepKeys {
  kWithPrefix,     ///< only the keys another bench writes under the prefix
  kWithoutPrefix,  ///< every key but the prefix the caller re-measures
};

/// Copy the members of the existing flat BENCH json object at `path` that
/// `keep` selects by `prefix` into `json`. Two benches share
/// BENCH_simulator.json: tab_overhead_profiler re-measures the
/// `profiler_` keys and keeps the rest, micro_simulator re-measures the
/// rest and keeps the `profiler_` keys, so re-recording either one, in
/// either order, leaves the file whole. Unparseable or missing files are
/// skipped: the bench then writes a fresh object.
inline void merge_existing(BenchJson& json, const std::string& path,
                           std::string_view prefix, KeepKeys keep) {
  std::ifstream in(path);
  if (!in) return;
  std::stringstream buf;
  buf << in.rdbuf();
  const auto root = obs::parse_json(buf.str());
  if (!root || root->kind != obs::JsonValue::Kind::kObject) {
    std::cerr << "note: " << path << " unparseable; rewriting from scratch\n";
    return;
  }
  for (const auto& [key, val] : root->object) {
    if (key.starts_with(prefix) != (keep == KeepKeys::kWithPrefix)) continue;
    switch (val.kind) {
      case obs::JsonValue::Kind::kNumber:
        json.add(key, val.number);
        break;
      case obs::JsonValue::Kind::kBool:
        json.add(key, val.boolean);
        break;
      case obs::JsonValue::Kind::kString:
        json.add(key, val.string);
        break;
      default:
        break;  // flat BENCH files hold no nested values
    }
  }
}

inline exp::ProfilingConfig bench_profiling() {
  exp::ProfilingConfig cfg;
  cfg.pressure_grid = {0.02, 0.2, 0.4, 0.6, 0.8, 0.92};
  cfg.load_fractions = {0.05, 0.25, 0.5, 0.75, 1.0};
  cfg.cell_duration_s = 60.0;
  cfg.warmup_s = 10.0;
  cfg.solo_probe_qps = 2.0;
  return cfg;
}

/// The flags the fig/abl benches share besides --jobs and the export flags.
struct BenchFlags {
  bool smoke = false;    ///< --smoke: the short CI configuration
  std::string json_out;  ///< --json-out F: machine-readable summary path
};

/// Scan argv for --smoke and --json-out F. Unrelated arguments are ignored;
/// --json-out without its value is rejected (amoeba::flag_value).
inline BenchFlags parse_bench_flags(int argc, char** argv) {
  BenchFlags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      flags.smoke = true;
    } else if (arg == "--json-out") {
      flags.json_out = flag_value(argc, argv, i++);
    }
  }
  return flags;
}

/// Per-run observability hookup for benches: parse the shared
/// --trace-out/--metrics-out/--audit-out/--summary-out/--profile-out flags
/// once, attach a fresh Observer (and, with --profile-out, a fresh
/// obs::Profiler) to each managed run, and export with a per-run suffix so
/// one flag set covers several runs (fig12 runs float and dd back to back).
class BenchObservability {
 public:
  BenchObservability(int argc, char** argv)
      : paths_(obs::parse_export_flags(argc, argv)) {}

  [[nodiscard]] bool active() const { return paths_.any(); }
  [[nodiscard]] bool profiling() const { return !paths_.profile.empty(); }

  /// A fresh observer for the next run; nullptr when no flags were given.
  [[nodiscard]] obs::Observer* begin_run() {
    if (profiling()) profiler_ = std::make_unique<obs::Profiler>();
    if (!paths_.any()) return nullptr;
    observer_ = std::make_unique<obs::Observer>(obs::ObsConfig{});
    return observer_.get();
  }

  /// The current run's self-profiler (nullptr without --profile-out).
  /// Valid from begin_run() to end_run(); hand it to
  /// ManagedRunOptions::profiler / ClusterRunOptions::profiler.
  [[nodiscard]] obs::Profiler* profiler() { return profiler_.get(); }

  /// Export the current run's artifacts, inserting "_<tag>" before each
  /// file extension. No-op when begin_run() returned nullptr.
  void end_run(const std::string& tag) {
    const std::string suffix = tag.empty() ? std::string{} : "_" + tag;
    if (observer_) {
      obs::write_exports(*observer_, paths_, std::cerr, suffix);
    }
    if (profiler_) {
      obs::write_profile_exports(*profiler_, paths_.profile, std::cerr,
                                 suffix);
    }
    observer_.reset();
    profiler_.reset();
  }

 private:
  obs::ExportPaths paths_;
  std::unique_ptr<obs::Observer> observer_;
  std::unique_ptr<obs::Profiler> profiler_;
};

/// The standard managed-run options for the main evaluation scenario.
inline exp::ManagedRunOptions bench_run_options() {
  exp::ManagedRunOptions opt;
  // One compressed diurnal day. 3600 s (24:1 compression) keeps the
  // uncompressed control timescales (30 s VM boot, 1 s cold start) from
  // dominating the day's resource economics the way they would in a
  // shorter run.
  opt.period_s = 3600.0;
  opt.duration_days = 1.0;
  opt.warmup_s = 60.0;
  opt.with_background = true;
  opt.background_peak_fraction = 0.30;
  opt.seed = 42;
  return opt;
}

}  // namespace amoeba::bench
