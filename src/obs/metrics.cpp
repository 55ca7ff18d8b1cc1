#include "obs/metrics.hpp"

#include <algorithm>

namespace amoeba::obs {

std::string metric_key(const std::string& name, const MetricLabels& labels) {
  if (labels.empty()) return name;
  MetricLabels sorted = labels;
  std::sort(sorted.begin(), sorted.end(),
            [](const MetricLabel& a, const MetricLabel& b) {
              return a.key < b.key;
            });
  std::string key = name + "{";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) key += ",";
    key += sorted[i].key + "=" + sorted[i].value;
  }
  key += "}";
  return key;
}

void HistogramMetric::observe(double x) {
  hist_.add(x);
  if (count_ == 0 || x < min_) min_ = x;
  if (count_ == 0 || x > max_) max_ = x;
  sum_ += x;
  ++count_;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const MetricLabels& labels) {
  common::MutexLock lock(mutex_);
  return counters_[metric_key(name, labels)];
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const MetricLabels& labels) {
  common::MutexLock lock(mutex_);
  return gauges_[metric_key(name, labels)];
}

HistogramMetric& MetricsRegistry::histogram(const std::string& name,
                                            const MetricLabels& labels) {
  common::MutexLock lock(mutex_);
  return histograms_[metric_key(name, labels)];
}

const MetricsSnapshot& MetricsRegistry::take_snapshot(double time_s) {
  MetricsSnapshot snap;
  snap.time_s = time_s;
  {
    common::MutexLock lock(mutex_);
    snap.counters.reserve(counters_.size());
    for (const auto& [key, c] : counters_) {
      snap.counters.emplace_back(key, c.value());
    }
    snap.gauges.reserve(gauges_.size());
    for (const auto& [key, g] : gauges_) {
      snap.gauges.emplace_back(key, g.value());
    }
    snap.histograms.reserve(histograms_.size());
    for (const auto& [key, h] : histograms_) {
      HistogramSnapshot hs;
      hs.count = h.count();
      hs.sum = h.sum();
      if (h.count() > 0) {
        hs.min = h.min();
        hs.max = h.max();
        hs.p50 = h.quantile(0.50);
        hs.p95 = h.quantile(0.95);
        hs.p99 = h.quantile(0.99);
      }
      snap.histograms.emplace_back(key, hs);
    }
  }
  snapshots_.push_back(std::move(snap));
  return snapshots_.back();
}

}  // namespace amoeba::obs
