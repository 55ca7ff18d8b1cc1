// Observer facade, audit JSONL export, summary table, and the shared CLI
// flag parsing used by examples and benches.
#include "obs/observer.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/exporters.hpp"
#include "obs/json.hpp"

namespace amoeba::obs {
namespace {

TEST(Observer, DefaultConstructedIsNullSink) {
  Observer obs;
  EXPECT_FALSE(obs.enabled());
  EXPECT_FALSE(obs.trace_on());
  EXPECT_FALSE(obs.metrics_on());
  EXPECT_FALSE(obs.audit_on());
}

TEST(Observer, ConfigTogglesComponentsIndividually) {
  ObsConfig cfg;
  cfg.trace = false;
  cfg.metrics = true;
  cfg.audit = false;
  Observer obs(cfg);
  EXPECT_TRUE(obs.enabled());
  EXPECT_FALSE(obs.trace_on());
  EXPECT_TRUE(obs.metrics_on());
  EXPECT_FALSE(obs.audit_on());
}

DecisionRecord sample_record() {
  DecisionRecord r;
  r.time_s = 42.0;
  r.service = "svc";
  r.platform = "serverless";
  r.decision = "stay";
  r.load_qps = 10.0;
  r.forecast_load_qps = 11.0;
  r.total_pressures = {0.3, 0.1, 0.05};
  r.external_pressures = {0.2, 0.08, 0.04};
  r.features = {0.25, 0.09, 0.045};
  r.weights = {{0.7, 0.2, 0.1}};
  r.mu = 12.0;
  r.predicted_service_s = 1.0 / 12.0;
  r.lambda_iterates = {18.0, 21.5, 22.0};
  r.lambda_max = 22.0;
  r.predicted_p95_s = 0.21;
  r.observed_p95_s = 0.19;
  r.qos_target_s = 0.4;
  r.n_containers = 3;
  r.prewarm_target = 2;
  r.votes_to_serverless = 0;
  r.votes_to_iaas = 1;
  return r;
}

TEST(AuditJsonl, EmitsOneValidObjectPerRecord) {
  AuditLog log;
  log.append(sample_record());
  DecisionRecord minimal;
  minimal.time_s = 44.0;
  minimal.service = "svc";
  minimal.platform = "serverless";
  minimal.decision = "transitioning";
  log.append(minimal);

  std::stringstream ss;
  write_audit_jsonl(log, ss);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(ss, line)) {
    ++lines;
    auto doc = parse_json(line);
    ASSERT_TRUE(doc.has_value()) << line;
    ASSERT_TRUE(doc->is_object());
    EXPECT_NE(doc->find("t"), nullptr);
    EXPECT_NE(doc->find("service"), nullptr);
    EXPECT_NE(doc->find("decision"), nullptr);
  }
  EXPECT_EQ(lines, log.size());
}

TEST(AuditJsonl, FullRecordRoundTripsKeyFields) {
  AuditLog log;
  log.append(sample_record());
  std::stringstream ss;
  write_audit_jsonl(log, ss);
  auto doc = parse_json(ss.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->at("t").number, 42.0);
  EXPECT_EQ(doc->at("service").string, "svc");
  EXPECT_EQ(doc->at("decision").string, "stay");
  EXPECT_EQ(doc->at("lambda_max").number, 22.0);
  EXPECT_EQ(doc->at("lambda_iterates").array.size(), 3u);
  EXPECT_EQ(doc->at("weights").array.size(), 3u);
  EXPECT_EQ(doc->at("prewarm_target").number, 2.0);
}

TEST(AuditJsonl, OptionalsAreOmittedWhenAbsent) {
  AuditLog log;
  DecisionRecord minimal;
  minimal.service = "svc";
  minimal.decision = "transitioning";
  log.append(minimal);
  std::stringstream ss;
  write_audit_jsonl(log, ss);
  auto doc = parse_json(ss.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("lambda_max"), nullptr);
  EXPECT_EQ(doc->find("weights"), nullptr);
  EXPECT_EQ(doc->find("predicted_p95_s"), nullptr);
}

TEST(Summary, RollsUpDecisionsMetricsAndTraceVolume) {
  Observer obs{ObsConfig{}};
  obs.audit().append(sample_record());
  obs.metrics().counter("queries", {{"service", "svc"}}).inc(5.0);
  obs.metrics().gauge("load_qps", {{"service", "svc"}}).set(10.0);
  obs.metrics().histogram("latency_s").observe(0.1);
  obs.metrics().take_snapshot(42.0);
  const auto track = obs.tracer().track("svc:svc/control");
  obs.tracer().instant(track, "decision", 42.0, "control");

  std::ostringstream os;
  write_summary(obs, os);
  const std::string s = os.str();
  EXPECT_NE(s.find("svc / stay"), std::string::npos);
  EXPECT_NE(s.find("queries{service=svc}"), std::string::npos);
  EXPECT_NE(s.find("latency_s"), std::string::npos);
  EXPECT_NE(s.find("1 events on 1 tracks"), std::string::npos);
}

TEST(ExportFlags, ParsesTheSharedCli) {
  const char* argv_c[] = {"prog",          "--trace-out",  "t.json",
                          "--ignored",     "--metrics-out", "m.jsonl",
                          "--audit-out",   "a.jsonl",       "--summary-out",
                          "s.txt"};
  std::vector<char*> argv;
  for (const char* a : argv_c) argv.push_back(const_cast<char*>(a));
  const ExportPaths p =
      parse_export_flags(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(p.trace, "t.json");
  EXPECT_EQ(p.metrics, "m.jsonl");
  EXPECT_EQ(p.audit, "a.jsonl");
  EXPECT_EQ(p.summary, "s.txt");
  EXPECT_TRUE(p.any());
}

TEST(ExportFlags, RejectsAFlagWithoutItsValue) {
  // Given last, the flag has no value; followed by another flag, it would
  // take that flag as its path and write a file named "--metrics-out".
  const std::vector<std::vector<const char*>> bad = {
      {"prog", "--trace-out"},
      {"prog", "--trace-out", "--metrics-out", "m.jsonl"},
      {"prog", "--audit-out", "a.jsonl", "--summary-out"},
      {"prog", "--profile-out", "--trace-out", "t.json"},
  };
  for (const auto& argv_c : bad) {
    std::vector<char*> argv;
    for (const char* a : argv_c) argv.push_back(const_cast<char*>(a));
    EXPECT_THROW(
        (void)parse_export_flags(static_cast<int>(argv.size()), argv.data()),
        ContractError)
        << argv_c.back();
  }
}

TEST(ExportFlags, EmptyWhenNoFlagsGiven) {
  const char* argv_c[] = {"prog", "positional"};
  std::vector<char*> argv;
  for (const char* a : argv_c) argv.push_back(const_cast<char*>(a));
  const ExportPaths p =
      parse_export_flags(static_cast<int>(argv.size()), argv.data());
  EXPECT_FALSE(p.any());
}

TEST(ExportFlags, WithSuffixInsertsBeforeExtension) {
  EXPECT_EQ(with_suffix("trace.json", "_dd"), "trace_dd.json");
  EXPECT_EQ(with_suffix("out/trace.json", "_dd"), "out/trace_dd.json");
  EXPECT_EQ(with_suffix("noext", "_dd"), "noext_dd");
  EXPECT_EQ(with_suffix("a.b/noext", "_dd"), "a.b/noext_dd");
  EXPECT_EQ(with_suffix("trace.json", ""), "trace.json");
}

}  // namespace
}  // namespace amoeba::obs
