// Labeled metrics registry: counters, gauges, and latency histograms.
//
// Metrics are keyed by a flattened "name{k=v,...}" identity so that nodes
// obtained once stay valid for the life of the registry (std::map never
// relocates values). Periodic `take_snapshot()` calls freeze the current
// values into a time-stamped record for the JSONL exporter; histogram
// snapshots carry summary quantiles rather than raw bins to keep the
// export compact.
//
// Threading model (ahead of the PDES engine sharding): registry
// *structure* — the name→node maps — is mutex-guarded and thread-safe,
// so concurrent shards may look up / create nodes. The returned Counter/
// Gauge/HistogramMetric nodes are NOT internally synchronized: each node
// must be mutated by one owner at a time (today: the single simulation
// thread; under sharding: the shard that registered it). Snapshotting is
// coordinator-only and happens at barriers, never concurrently with node
// mutation.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "stats/histogram.hpp"

namespace amoeba::obs {

/// One "k=v" metric label.
struct MetricLabel {
  std::string key;
  std::string value;
};

using MetricLabels = std::vector<MetricLabel>;

/// Canonical identity "name{k=v,...}" (labels sorted by key).
[[nodiscard]] std::string metric_key(const std::string& name,
                                     const MetricLabels& labels);

class Counter {
 public:
  void inc(double delta = 1.0) { value_ += delta; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Log-spaced latency histogram plus exact sum/count/min/max moments.
class HistogramMetric {
 public:
  HistogramMetric() : hist_(1e-6, 1e4, 16) {}

  void observe(double x);

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  /// Interpolated quantile; requires count() > 0.
  [[nodiscard]] double quantile(double q) const { return hist_.quantile(q); }

 private:
  stats::LogHistogram hist_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Frozen summary of one histogram at snapshot time.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  std::optional<double> min;
  std::optional<double> max;
  std::optional<double> p50;
  std::optional<double> p95;
  std::optional<double> p99;
};

/// All metric values at one simulation time.
struct MetricsSnapshot {
  double time_s = 0.0;
  std::vector<std::pair<std::string, double>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

class MetricsRegistry {
 public:
  /// Look up or create; returned references stay valid for the registry's
  /// lifetime (std::map node stability). Safe to call concurrently.
  Counter& counter(const std::string& name, const MetricLabels& labels = {})
      AMOEBA_EXCLUDES(mutex_);
  Gauge& gauge(const std::string& name, const MetricLabels& labels = {})
      AMOEBA_EXCLUDES(mutex_);
  HistogramMetric& histogram(const std::string& name,
                             const MetricLabels& labels = {})
      AMOEBA_EXCLUDES(mutex_);

  /// Freeze current values into the snapshot series. Coordinator-only:
  /// must not race node mutation (see the threading model above).
  const MetricsSnapshot& take_snapshot(double time_s) AMOEBA_EXCLUDES(mutex_);

  [[nodiscard]] const std::vector<MetricsSnapshot>& snapshots() const noexcept {
    return snapshots_;
  }

 private:
  mutable common::Mutex mutex_;
  std::map<std::string, Counter> counters_ AMOEBA_GUARDED_BY(mutex_);
  std::map<std::string, Gauge> gauges_ AMOEBA_GUARDED_BY(mutex_);
  std::map<std::string, HistogramMetric> histograms_ AMOEBA_GUARDED_BY(mutex_);
  // Coordinator-confined (append in take_snapshot, read after runs); not
  // guarded so exporters can hold the returned reference lock-free.
  std::vector<MetricsSnapshot> snapshots_;
};

}  // namespace amoeba::obs
