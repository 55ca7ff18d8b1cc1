#include "obs/exporters.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <string_view>

#include "common/assert.hpp"
#include "common/cli.hpp"
#include "obs/json.hpp"
#include "obs/profiler.hpp"

namespace amoeba::obs {

namespace {

std::string json_quote(std::string_view s) {
  return "\"" + json_escape(s) + "\"";
}

void write_args(const TraceArgs& args, std::ostream& out) {
  out << "{";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out << ",";
    out << json_quote(args[i].key) << ":";
    if (args[i].numeric) {
      out << json_number(args[i].num);
    } else {
      out << json_quote(args[i].str);
    }
  }
  out << "}";
}

bool is_async(TracePhase ph) {
  return ph == TracePhase::kAsyncBegin || ph == TracePhase::kAsyncEnd;
}

}  // namespace

void write_chrome_trace(const Tracer& tracer, std::ostream& out) {
  AMOEBA_PROF_SCOPE(kExport);
  out << "{\"traceEvents\":[";
  bool first = true;
  const auto emit_sep = [&] {
    if (!first) out << ",";
    first = false;
    out << "\n";
  };

  // Track naming metadata first so viewers label rows before any event.
  for (std::size_t tid = 0; tid < tracer.track_names().size(); ++tid) {
    emit_sep();
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
        << ",\"args\":{\"name\":" << json_quote(tracer.track_names()[tid]) << "}}";
    emit_sep();
    out << "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":"
        << tid << ",\"args\":{\"sort_index\":" << tid << "}}";
  }

  // trace_event viewers expect events ordered by timestamp; the tracer
  // records in simulation order which is already non-decreasing, but a
  // stable sort keeps the invariant explicit (and cheap on sorted input).
  std::vector<const TraceEvent*> ordered;
  ordered.reserve(tracer.events().size());
  for (const TraceEvent& ev : tracer.events()) ordered.push_back(&ev);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     return a->ts_s < b->ts_s;
                   });

  for (const TraceEvent* ev : ordered) {
    emit_sep();
    const double ts_us = ev->ts_s * 1e6;
    out << "{\"name\":" << json_quote(ev->name) << ",\"ph\":\""
        << static_cast<char>(ev->phase) << "\",\"ts\":" << json_number(ts_us)
        << ",\"pid\":1,\"tid\":" << ev->track;
    // Async pairs are matched on (cat, id, name); category must not be empty.
    const std::string cat =
        ev->category.empty() ? (is_async(ev->phase) ? "async" : "")
                             : ev->category;
    if (!cat.empty()) out << ",\"cat\":" << json_quote(cat);
    if (is_async(ev->phase)) {
      char idbuf[24];
      std::snprintf(idbuf, sizeof idbuf, "0x%llx",
                    static_cast<unsigned long long>(ev->async_id));
      out << ",\"id\":\"" << idbuf << "\"";
    }
    if (!ev->args.empty()) {
      out << ",\"args\":";
      write_args(ev->args, out);
    }
    out << "}";
  }
  out << "\n]}\n";
}

namespace {

void write_number_map(
    const std::vector<std::pair<std::string, double>>& entries,
    std::ostream& out) {
  out << "{";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) out << ",";
    out << json_quote(entries[i].first) << ":" << json_number(entries[i].second);
  }
  out << "}";
}

void write_histogram_snapshot(const HistogramSnapshot& h, std::ostream& out) {
  out << "{\"count\":" << h.count << ",\"sum\":" << json_number(h.sum);
  const auto opt = [&out](const char* key, const std::optional<double>& v) {
    if (v) out << ",\"" << key << "\":" << json_number(*v);
  };
  opt("min", h.min);
  opt("max", h.max);
  opt("p50", h.p50);
  opt("p95", h.p95);
  opt("p99", h.p99);
  out << "}";
}

}  // namespace

void write_metrics_jsonl(const MetricsRegistry& metrics, std::ostream& out) {
  AMOEBA_PROF_SCOPE(kExport);
  for (const MetricsSnapshot& snap : metrics.snapshots()) {
    out << "{\"t\":" << json_number(snap.time_s) << ",\"counters\":";
    write_number_map(snap.counters, out);
    out << ",\"gauges\":";
    write_number_map(snap.gauges, out);
    out << ",\"histograms\":{";
    for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
      if (i > 0) out << ",";
      out << json_quote(snap.histograms[i].first) << ":";
      write_histogram_snapshot(snap.histograms[i].second, out);
    }
    out << "}}\n";
  }
}

namespace {

void write_double_array(const double* data, std::size_t n, std::ostream& out) {
  out << "[";
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) out << ",";
    out << json_number(data[i]);
  }
  out << "]";
}

}  // namespace

void write_audit_jsonl(const AuditLog& audit, std::ostream& out) {
  AMOEBA_PROF_SCOPE(kExport);
  for (const DecisionRecord& r : audit.records()) {
    out << "{\"t\":" << json_number(r.time_s)
        << ",\"service\":" << json_quote(r.service)
        << ",\"platform\":" << json_quote(r.platform)
        << ",\"decision\":" << json_quote(r.decision)
        << ",\"load_qps\":" << json_number(r.load_qps)
        << ",\"forecast_load_qps\":" << json_number(r.forecast_load_qps)
        << ",\"total_pressures\":";
    write_double_array(r.total_pressures.data(), r.total_pressures.size(), out);
    out << ",\"external_pressures\":";
    write_double_array(r.external_pressures.data(), r.external_pressures.size(),
                       out);
    out << ",\"features\":";
    write_double_array(r.features.data(), r.features.size(), out);
    if (r.weights) {
      out << ",\"weights\":";
      write_double_array(r.weights->data(), r.weights->size(), out);
    }
    out << ",\"mu\":" << json_number(r.mu)
        << ",\"predicted_service_s\":" << json_number(r.predicted_service_s)
        << ",\"lambda_iterates\":";
    write_double_array(r.lambda_iterates.data(), r.lambda_iterates.size(), out);
    if (r.lambda_max) {
      out << ",\"lambda_max\":" << json_number(*r.lambda_max);
    }
    if (r.predicted_p95_s) {
      out << ",\"predicted_p95_s\":" << json_number(*r.predicted_p95_s);
    }
    if (r.observed_p95_s) {
      out << ",\"observed_p95_s\":" << json_number(*r.observed_p95_s);
    }
    out << ",\"qos_target_s\":" << json_number(r.qos_target_s);
    // Stage id only when the record came from a call-graph run, so
    // standalone audit logs (and their golden files) stay byte-stable.
    if (r.stage >= 0) {
      out << ",\"stage\":" << r.stage;
    }
    out << ",\"n_containers\":" << r.n_containers
        << ",\"prewarm_target\":" << r.prewarm_target
        << ",\"votes_to_serverless\":" << r.votes_to_serverless
        << ",\"votes_to_iaas\":" << r.votes_to_iaas << "}\n";
  }
}

namespace {

void rule(std::ostream& out, std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) out << '-';
  out << "\n";
}

std::string fmt(double v) {
  std::ostringstream os;
  os << std::setprecision(6) << v;
  return os.str();
}

}  // namespace

void write_summary(const Observer& obs, std::ostream& out) {
  AMOEBA_PROF_SCOPE(kExport);
  out << "== observability summary ==\n";

  if (obs.audit_on()) {
    // Decision counts per (service, decision), in first-seen order.
    std::vector<std::pair<std::string, std::uint64_t>> counts;
    for (const DecisionRecord& r : obs.audit().records()) {
      const std::string key = r.service + " / " + r.decision;
      auto it = std::find_if(counts.begin(), counts.end(),
                             [&](const auto& kv) { return kv.first == key; });
      if (it == counts.end()) {
        counts.emplace_back(key, 1);
      } else {
        ++it->second;
      }
    }
    out << "\ndecisions (" << obs.audit().size() << " records)\n";
    rule(out, 48);
    for (const auto& [key, n] : counts) {
      out << "  " << std::left << std::setw(36) << key << std::right
          << std::setw(8) << n << "\n";
    }
  }

  if (obs.metrics_on()) {
    const auto& snaps = obs.metrics().snapshots();
    if (!snaps.empty()) {
      const MetricsSnapshot& last = snaps.back();
      out << "\nfinal counters (t=" << fmt(last.time_s) << "s)\n";
      rule(out, 48);
      for (const auto& [key, v] : last.counters) {
        out << "  " << std::left << std::setw(36) << key << std::right
            << std::setw(10) << fmt(v) << "\n";
      }
      out << "\nfinal gauges\n";
      rule(out, 48);
      for (const auto& [key, v] : last.gauges) {
        out << "  " << std::left << std::setw(36) << key << std::right
            << std::setw(10) << fmt(v) << "\n";
      }
      out << "\nhistograms (count / p50 / p95 / p99)\n";
      rule(out, 48);
      for (const auto& [key, h] : last.histograms) {
        out << "  " << std::left << std::setw(30) << key << std::right
            << std::setw(8) << h.count;
        if (h.p50 && h.p95 && h.p99) {
          out << std::setw(12) << fmt(*h.p50) << std::setw(12) << fmt(*h.p95)
              << std::setw(12) << fmt(*h.p99);
        }
        out << "\n";
      }
    }
  }

  if (obs.trace_on()) {
    out << "\ntrace: " << obs.tracer().events().size() << " events on "
        << obs.tracer().track_names().size() << " tracks";
    if (obs.tracer().dropped() > 0) {
      out << " (" << obs.tracer().dropped() << " dropped at cap)";
    }
    out << "\n";
  }
}

ExportPaths parse_export_flags(int argc, char** argv) {
  ExportPaths paths;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--trace-out") {
      paths.trace = flag_value(argc, argv, i++);
    } else if (flag == "--metrics-out") {
      paths.metrics = flag_value(argc, argv, i++);
    } else if (flag == "--audit-out") {
      paths.audit = flag_value(argc, argv, i++);
    } else if (flag == "--summary-out") {
      paths.summary = flag_value(argc, argv, i++);
    } else if (flag == "--profile-out") {
      paths.profile = flag_value(argc, argv, i++);
    }
  }
  return paths;
}

std::string with_suffix(const std::string& path, const std::string& suffix) {
  if (suffix.empty()) return path;
  const std::size_t dot = path.rfind('.');
  const std::size_t slash = path.rfind('/');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return path + suffix;
  }
  return path.substr(0, dot) + suffix + path.substr(dot);
}

namespace {

template <typename WriteFn>
void export_one(const std::string& path, const std::string& suffix,
                const char* what, std::ostream& diagnostics, WriteFn&& fn) {
  if (path.empty()) return;
  const std::string full = with_suffix(path, suffix);
  std::ofstream out(full);
  if (!out) {
    diagnostics << "obs: failed to open " << full << " for writing\n";
    return;
  }
  fn(out);
  diagnostics << "obs: wrote " << what << " to " << full << "\n";
}

}  // namespace

void write_profile_exports(const Profiler& profiler, const std::string& path,
                           std::ostream& diagnostics,
                           const std::string& suffix) {
  if (path.empty()) return;
  const ProfileReport report = profiler.report();
  export_one(path, suffix, "profile jsonl", diagnostics,
             [&](std::ostream& out) { write_profile_jsonl(report, out); });
  export_one(with_suffix(path, "_trace"), suffix, "profile chrome trace",
             diagnostics,
             [&](std::ostream& out) { write_profile_chrome_trace(report, out); });
  write_profile_table(report, diagnostics);
}

void write_exports(const Observer& obs, const ExportPaths& paths,
                   std::ostream& diagnostics, const std::string& suffix) {
  export_one(paths.trace, suffix, "chrome trace", diagnostics,
             [&](std::ostream& out) { write_chrome_trace(obs.tracer(), out); });
  export_one(paths.metrics, suffix, "metrics jsonl", diagnostics,
             [&](std::ostream& out) { write_metrics_jsonl(obs.metrics(), out); });
  export_one(paths.audit, suffix, "decision audit jsonl", diagnostics,
             [&](std::ostream& out) { write_audit_jsonl(obs.audit(), out); });
  export_one(paths.summary, suffix, "summary", diagnostics,
             [&](std::ostream& out) { write_summary(obs, out); });
}

}  // namespace amoeba::obs
