#include "core/contention_monitor.hpp"

#include <utility>
#include "obs/profiler.hpp"

namespace amoeba::core {

namespace {

/// EWMA factor applied to each new pressure estimate. A few probes per
/// period make raw estimates jittery; unsmoothed jitter near a switch
/// margin makes the controller flap.
constexpr double kPressureSmoothing = 0.5;

}  // namespace

void ContentionMonitorConfig::validate() const {
  AMOEBA_EXPECTS(probe_qps > 0.0);
  AMOEBA_EXPECTS(sample_period_s > 0.0);
}

ContentionMonitor::ContentionMonitor(sim::Engine& engine,
                                     serverless::ServerlessPlatform& platform,
                                     MeterCalibration calibration,
                                     ContentionMonitorConfig cfg, sim::Rng rng)
    : engine_(engine),
      platform_(platform),
      calibration_(std::move(calibration)),
      cfg_(cfg),
      rng_(rng) {
  cfg_.validate();
  AMOEBA_EXPECTS_MSG(calibration_.complete(),
                     "monitor needs all three meter calibration curves");
  for (std::size_t i = 0; i < kNumResources; ++i) {
    meters_[i].profile =
        workload::meter_profile(workload::kAllMeters[i]);
    meters_[i].pressure = calibration_.curves[i]->points().front().pressure;
  }
}

ContentionMonitor::~ContentionMonitor() { stop(); }

void ContentionMonitor::start() {
  if (running_) return;
  running_ = true;
  for (std::size_t i = 0; i < kNumResources; ++i) {
    MeterState& m = meters_[i];
    m.last_update = engine_.now();
    // Find-or-register: a shared node registers the meters up front.
    const auto found = platform_.find_function(m.profile.name);
    const serverless::FunctionId fn =
        found ? *found : platform_.register_function(m.profile);
    m.generator = std::make_unique<workload::ConstantLoadGenerator>(
        engine_, rng_.fork(7000 + i), cfg_.probe_qps, [this, i, fn] {
          platform_.submit(fn, [this, i](const workload::QueryRecord& rec) {
            // Injected telemetry faults: the completion may be lost before
            // it reaches the aggregator, or its latency contaminated.
            if (faults_ != nullptr && faults_->next_meter_drop()) return;
            // Exclude queue wait and cold start: the meter measures
            // contention on the resource, not pool sizing effects.
            double lat = rec.breakdown.service_s();
            if (faults_ != nullptr) lat *= faults_->next_meter_multiplier();
            meters_[i].latency_sum += lat;
            meters_[i].latency_count += 1;
          });
        });
    m.generator->start();
  }
  period_event_ =
      engine_.schedule_in(cfg_.sample_period_s, [this] { on_period(); });
}

void ContentionMonitor::stop() {
  if (!running_) return;
  running_ = false;
  for (auto& m : meters_) {
    if (m.generator) m.generator->stop();
  }
  if (period_event_ != sim::kNoEvent) {
    engine_.cancel(period_event_);
    period_event_ = sim::kNoEvent;
  }
}

void ContentionMonitor::on_period() {
  AMOEBA_PROF_SCOPE(kMonitor);
  period_event_ = sim::kNoEvent;
  for (std::size_t i = 0; i < kNumResources; ++i) {
    MeterState& m = meters_[i];
    // No completions this period: hold the previous estimate (the meter
    // queries are still in flight under extreme contention, which itself
    // implies high pressure; the next period will catch up).
    if (m.latency_count == 0) continue;
    const double mean = m.latency_sum / static_cast<double>(m.latency_count);
    m.last_mean_latency = mean;
    // The calibration curve's pressure axis includes the probing load
    // itself (the meter was the only tenant during profiling), so the
    // tenants' pressure is the inversion minus the probe's own share.
    const double self = probe_self_pressure(i);
    const double floor = calibration_.curves[i]->points().front().pressure;
    const double raw =
        std::max(floor, calibration_.curves[i]->pressure_for(mean) - self);
    m.pressure += kPressureSmoothing * (raw - m.pressure);
    m.latency_sum = 0.0;
    m.latency_count = 0;
    m.last_update = engine_.now();
  }
  ++samples_taken_;
  if (obs_ != nullptr && obs_->enabled()) {
    static constexpr std::array<const char*, kNumResources> kDims = {
        "cpu", "io", "net"};
    const double now = engine_.now();
    if (obs_->metrics_on()) {
      for (std::size_t i = 0; i < kNumResources; ++i) {
        obs_->metrics()
            .gauge("pressure", {{"resource", kDims[i]}})
            .set(meters_[i].pressure);
        obs_->metrics()
            .gauge("pressure_age_s", {{"resource", kDims[i]}})
            .set(now - meters_[i].last_update);
      }
      obs_->metrics().counter("monitor_ticks").inc();
    }
    if (obs_->trace_on()) {
      obs::Tracer& tr = obs_->tracer();
      const auto track = tr.track("monitor");
      for (std::size_t i = 0; i < kNumResources; ++i) {
        tr.counter(track, std::string("pressure:") + kDims[i], now,
                   meters_[i].pressure);
      }
      tr.instant(track, "monitor_tick", now, "monitor");
    }
  }
  if (on_sample_) on_sample_();
  if (running_) {
    period_event_ =
        engine_.schedule_in(cfg_.sample_period_s, [this] { on_period(); });
  }
}

double ContentionMonitor::probe_self_pressure(std::size_t dim) const {
  const auto& p = meters_[dim].profile;
  const auto& cfg = platform_.config();
  switch (dim) {
    case kCpuDim:
      return cfg_.probe_qps * p.exec.cpu_seconds / cfg.cores;
    case kIoDim:
      return cfg_.probe_qps * (p.exec.io_bytes + p.code_bytes) /
             cfg.io_efficiency / cfg.disk_bps;
    default:
      return cfg_.probe_qps * (p.exec.net_bytes + p.result_bytes) /
             cfg.net_bps;
  }
}

std::array<double, kNumResources> ContentionMonitor::pressures() const {
  std::array<double, kNumResources> out{};
  for (std::size_t i = 0; i < kNumResources; ++i) {
    out[i] = meters_[i].pressure;
  }
  return out;
}

std::array<double, kNumResources> ContentionMonitor::pressure_ages() const {
  std::array<double, kNumResources> out{};
  for (std::size_t i = 0; i < kNumResources; ++i) {
    out[i] = engine_.now() - meters_[i].last_update;
  }
  return out;
}

std::array<std::optional<double>, kNumResources>
ContentionMonitor::meter_latencies() const {
  std::array<std::optional<double>, kNumResources> out;
  for (std::size_t i = 0; i < kNumResources; ++i) {
    out[i] = meters_[i].last_mean_latency;
  }
  return out;
}

std::array<double, kNumResources> ContentionMonitor::probe_cpu_overhead()
    const {
  std::array<double, kNumResources> out{};
  const double cores = platform_.config().cores;
  for (std::size_t i = 0; i < kNumResources; ++i) {
    out[i] = cfg_.probe_qps * meters_[i].profile.exec.cpu_seconds / cores;
  }
  return out;
}

}  // namespace amoeba::core
