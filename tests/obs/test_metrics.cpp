// Metrics registry semantics and the JSONL export, read back with
// obs::parse_json.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/exporters.hpp"
#include "obs/json.hpp"

namespace amoeba::obs {
namespace {

TEST(MetricKey, SortsLabelsByKey) {
  EXPECT_EQ(metric_key("m", {}), "m");
  EXPECT_EQ(metric_key("m", {{"b", "2"}, {"a", "1"}}), "m{a=1,b=2}");
  EXPECT_EQ(metric_key("decisions", {{"service", "svc"}, {"decision", "stay"}}),
            "decisions{decision=stay,service=svc}");
}

TEST(MetricsRegistry, ReturnsStableReferences) {
  MetricsRegistry reg;
  Counter& c = reg.counter("queries", {{"service", "a"}});
  c.inc();
  // Creating many more metrics must not relocate the first.
  for (int i = 0; i < 100; ++i) {
    reg.counter("queries", {{"service", "s" + std::to_string(i)}});
  }
  Counter& again = reg.counter("queries", {{"service", "a"}});
  EXPECT_EQ(&c, &again);
  c.inc(2.0);
  EXPECT_DOUBLE_EQ(again.value(), 3.0);
}

TEST(MetricsRegistry, HistogramTracksMoments) {
  MetricsRegistry reg;
  HistogramMetric& h = reg.histogram("latency_s");
  h.observe(0.1);
  h.observe(0.2);
  h.observe(0.4);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.7);
  EXPECT_DOUBLE_EQ(h.min(), 0.1);
  EXPECT_DOUBLE_EQ(h.max(), 0.4);
  EXPECT_GT(h.quantile(0.5), 0.05);
  EXPECT_LT(h.quantile(0.5), 0.45);
}

TEST(MetricsRegistry, SnapshotFreezesValues) {
  MetricsRegistry reg;
  reg.counter("ticks").inc();
  reg.gauge("load").set(12.5);
  const MetricsSnapshot& s1 = reg.take_snapshot(10.0);
  EXPECT_DOUBLE_EQ(s1.time_s, 10.0);
  ASSERT_EQ(s1.counters.size(), 1u);
  EXPECT_DOUBLE_EQ(s1.counters[0].second, 1.0);

  reg.counter("ticks").inc();
  const MetricsSnapshot& s2 = reg.take_snapshot(20.0);
  EXPECT_DOUBLE_EQ(s2.counters[0].second, 2.0);
  // The earlier snapshot is frozen, not a live view.
  EXPECT_DOUBLE_EQ(reg.snapshots()[0].counters[0].second, 1.0);
  EXPECT_EQ(reg.snapshots().size(), 2u);
}

TEST(MetricsRegistry, EmptyHistogramSnapshotOmitsQuantiles) {
  MetricsRegistry reg;
  reg.histogram("latency_s");
  const MetricsSnapshot& s = reg.take_snapshot(0.0);
  ASSERT_EQ(s.histograms.size(), 1u);
  EXPECT_EQ(s.histograms[0].second.count, 0u);
  EXPECT_FALSE(s.histograms[0].second.p50.has_value());
  EXPECT_FALSE(s.histograms[0].second.min.has_value());
}

// The registry holds a mutex (non-movable), so fixtures populate in place.
void populate_registry(MetricsRegistry& reg) {
  reg.counter("queries", {{"service", "svc"}}).inc(11972.0);
  reg.gauge("load_qps", {{"service", "svc"}}).set(4.5666666666666673);
  reg.gauge("tiny").set(1.25e-9);
  HistogramMetric& h = reg.histogram("latency_s", {{"service", "svc"}});
  h.observe(0.0758414);
  h.observe(0.230762);
  h.observe(0.353142);
  reg.take_snapshot(5.0);
  reg.counter("queries", {{"service", "svc"}}).inc();
  reg.take_snapshot(10.0);
}

/// The members of a parsed counters/gauges object, in written order.
void expect_number_map(
    const JsonValue& obj,
    const std::vector<std::pair<std::string, double>>& want) {
  ASSERT_TRUE(obj.is_object());
  ASSERT_EQ(obj.object.size(), want.size());
  for (std::size_t j = 0; j < want.size(); ++j) {
    EXPECT_EQ(obj.object[j].first, want[j].first);
    // json_number promises strtod-exact round trips.
    EXPECT_EQ(obj.object[j].second.number, want[j].second);
  }
}

TEST(MetricsJsonl, RoundTripsBitIdentically) {
  MetricsRegistry reg;
  populate_registry(reg);
  std::stringstream ss;
  write_metrics_jsonl(reg, ss);

  std::string line;
  std::size_t i = 0;
  while (std::getline(ss, line)) {
    ASSERT_LT(i, reg.snapshots().size());
    const MetricsSnapshot& want = reg.snapshots()[i++];
    const std::optional<JsonValue> doc = parse_json(line);
    ASSERT_TRUE(doc.has_value()) << line;
    EXPECT_EQ(doc->at("t").number, want.time_s);
    expect_number_map(doc->at("counters"), want.counters);
    expect_number_map(doc->at("gauges"), want.gauges);
    const JsonValue& histograms = doc->at("histograms");
    ASSERT_EQ(histograms.object.size(), want.histograms.size());
    for (std::size_t j = 0; j < want.histograms.size(); ++j) {
      const auto& [key, hg] = histograms.object[j];
      const HistogramSnapshot& hw = want.histograms[j].second;
      EXPECT_EQ(key, want.histograms[j].first);
      EXPECT_EQ(hg.at("count").number, static_cast<double>(hw.count));
      EXPECT_EQ(hg.at("sum").number, hw.sum);
      const auto member = [&hg](const char* k) -> std::optional<double> {
        const JsonValue* v = hg.find(k);
        if (v == nullptr) return std::nullopt;
        return v->number;
      };
      EXPECT_EQ(member("min"), hw.min);
      EXPECT_EQ(member("max"), hw.max);
      EXPECT_EQ(member("p50"), hw.p50);
      EXPECT_EQ(member("p95"), hw.p95);
      EXPECT_EQ(member("p99"), hw.p99);
    }
  }
  EXPECT_EQ(i, reg.snapshots().size());
}

TEST(MetricsJsonl, EveryLineIsValidJson) {
  MetricsRegistry reg;
  populate_registry(reg);
  std::stringstream ss;
  write_metrics_jsonl(reg, ss);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(ss, line)) {
    ++lines;
    auto doc = parse_json(line);
    ASSERT_TRUE(doc.has_value()) << "line " << lines << ": " << line;
    EXPECT_TRUE(doc->is_object());
    EXPECT_NE(doc->find("t"), nullptr);
  }
  EXPECT_EQ(lines, reg.snapshots().size());
}

}  // namespace
}  // namespace amoeba::obs
