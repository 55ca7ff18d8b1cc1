// Multi-resource contention monitor — paper §VI and §IV-B step 2.
//
// The monitor keeps three contention meters running on the serverless
// platform at a low probing rate (1 QPS each, §VII-E). Every sample period
// it averages each meter's observed latencies and inverts the profiled
// calibration curve (Fig. 8) to obtain the platform's current pressure on
// that resource. Consumers (the deployment controller) subscribe to the
// per-period sample callback.
//
// The meters are real functions on the platform: their probing cost is the
// honest 1.1% / 0.5% / 0.6% CPU overhead the paper reports, and it is
// visible to every co-located microservice.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>

#include "core/profile_data.hpp"
#include "obs/observer.hpp"
#include "serverless/platform.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "workload/load_generator.hpp"
#include "workload/meters.hpp"

namespace amoeba::core {

struct ContentionMonitorConfig {
  double probe_qps = workload::kMeterProbeQps;
  double sample_period_s = 5.0;  ///< choose via min_sample_period (Eq. 8)

  void validate() const;
};

class ContentionMonitor {
 public:
  ContentionMonitor(sim::Engine& engine,
                    serverless::ServerlessPlatform& platform,
                    MeterCalibration calibration, ContentionMonitorConfig cfg,
                    sim::Rng rng);
  ~ContentionMonitor();
  ContentionMonitor(const ContentionMonitor&) = delete;
  ContentionMonitor& operator=(const ContentionMonitor&) = delete;

  /// Register meter functions (if absent) and begin probing + sampling.
  void start();
  void stop();

  /// Latest per-resource pressure estimates (kCpuDim/kIoDim/kNetDim).
  /// Before the first sample completes, returns the calibration floors.
  [[nodiscard]] std::array<double, kNumResources> pressures() const;

  /// Latest per-meter mean latencies (diagnostics; nullopt until sampled).
  [[nodiscard]] std::array<std::optional<double>, kNumResources>
  meter_latencies() const;

  /// Invoked at the end of every sample period, after pressures update.
  void set_on_sample(std::function<void()> fn) { on_sample_ = std::move(fn); }

  /// Attach the observability sink (non-owning; nullptr disables). Each
  /// period then updates per-resource pressure gauges and counter tracks.
  void set_observer(obs::Observer* observer) { obs_ = observer; }

  /// Attach the fault injector (non-owning; nullptr disables). Probe
  /// completions may then be dropped before recording or contaminated with
  /// an outlier latency multiplier.
  void set_fault_injector(sim::FaultInjector* faults) noexcept {
    faults_ = faults;
  }

  /// Seconds since each pressure estimate was last refreshed by a real
  /// meter sample (0 right after a fresh sample).
  [[nodiscard]] std::array<double, kNumResources> pressure_ages() const;

  [[nodiscard]] double sample_period() const noexcept {
    return cfg_.sample_period_s;
  }
  [[nodiscard]] std::uint64_t samples_taken() const noexcept {
    return samples_taken_;
  }

  /// CPU cost of the probing itself, as a fraction of the node's cores —
  /// the §VII-E overhead figure.
  [[nodiscard]] std::array<double, kNumResources> probe_cpu_overhead() const;

 private:
  void on_period();
  /// Pressure the probing itself puts on dimension `dim` (subtracted from
  /// the inversion: the calibration curve's axis includes the probe).
  [[nodiscard]] double probe_self_pressure(std::size_t dim) const;

  sim::Engine& engine_;
  serverless::ServerlessPlatform& platform_;
  MeterCalibration calibration_;
  ContentionMonitorConfig cfg_;
  sim::Rng rng_;

  struct MeterState {
    workload::FunctionProfile profile;
    std::unique_ptr<workload::ConstantLoadGenerator> generator;
    double latency_sum = 0.0;
    std::uint64_t latency_count = 0;
    std::optional<double> last_mean_latency;
    double pressure = 0.0;
    sim::Time last_update = 0.0;  ///< when `pressure` last saw real data
  };
  std::array<MeterState, kNumResources> meters_;
  bool running_ = false;
  sim::EventId period_event_ = sim::kNoEvent;
  std::uint64_t samples_taken_ = 0;
  std::function<void()> on_sample_;
  obs::Observer* obs_ = nullptr;
  sim::FaultInjector* faults_ = nullptr;
};

}  // namespace amoeba::core
