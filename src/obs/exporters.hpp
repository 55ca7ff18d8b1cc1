// Exporters for the observability layer.
//
// Three output formats, all written to caller-supplied std::ostream&:
//   - Chrome/Perfetto trace_event JSON ({"traceEvents": [...]}) — load at
//     https://ui.perfetto.dev or chrome://tracing. Timestamps are emitted in
//     microseconds of simulation time.
//   - JSONL metric snapshots — one JSON object per line, one line per
//     snapshot; numbers use round-trippable formatting so that
//     obs::parse_json recovers bit-identical values.
//   - Human-readable end-of-run summary table.
//
// `ExportPaths` + `parse_export_flags` + `write_exports` give examples and
// benches a shared --trace-out/--metrics-out/--audit-out/--summary-out CLI.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/observer.hpp"

namespace amoeba::obs {

/// Chrome trace_event JSON for ui.perfetto.dev / chrome://tracing.
void write_chrome_trace(const Tracer& tracer, std::ostream& out);

/// One JSON object per snapshot, one snapshot per line.
void write_metrics_jsonl(const MetricsRegistry& metrics, std::ostream& out);

/// One JSON object per DecisionRecord, one record per line.
void write_audit_jsonl(const AuditLog& audit, std::ostream& out);

/// Human-readable end-of-run roll-up: decision counts per service, final
/// gauge/counter values, histogram quantiles, trace volume.
void write_summary(const Observer& obs, std::ostream& out);

/// Output destinations selected on the command line; empty string = off.
struct ExportPaths {
  std::string trace;
  std::string metrics;
  std::string audit;
  std::string summary;
  std::string profile;  ///< self-profile (obs::Profiler) JSONL destination

  [[nodiscard]] bool any() const {
    return !trace.empty() || !metrics.empty() || !audit.empty() ||
           !summary.empty();
  }
};

/// Scan argv for --trace-out F, --metrics-out F, --audit-out F,
/// --summary-out F, --profile-out F (space-separated). Unrelated arguments
/// are ignored; a flag without its value is rejected (amoeba::flag_value).
[[nodiscard]] ExportPaths parse_export_flags(int argc, char** argv);

/// Insert `suffix` before the path's extension ("t.json", "_a" -> "t_a.json").
[[nodiscard]] std::string with_suffix(const std::string& path,
                                      const std::string& suffix);

/// Write every selected export, logging one line per file to `diagnostics`.
/// `suffix` distinguishes multiple runs sharing one flag set.
void write_exports(const Observer& obs, const ExportPaths& paths,
                   std::ostream& diagnostics, const std::string& suffix = {});

class Profiler;

/// Write the self-profile report behind ExportPaths::profile: the JSONL
/// stream to `path`, Chrome counter events to with_suffix(path, "_trace"),
/// and the per-domain text table to `diagnostics`.
void write_profile_exports(const Profiler& profiler, const std::string& path,
                           std::ostream& diagnostics,
                           const std::string& suffix = {});

}  // namespace amoeba::obs
