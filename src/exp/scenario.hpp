// Experiment scenario builders — encodes the paper's §VII-A setup.
//
// The simulated cluster mirrors Table II: one 40-core / 25 GbE / NVMe node
// hosts the shared serverless platform, a second node hosts the IaaS VMs,
// and the load generator + controller + monitor run "off to the side"
// (they cost nothing in the simulation, matching the paper's third node).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/amoeba.hpp"
#include "core/profile_data.hpp"
#include "iaas/platform.hpp"
#include "serverless/platform.hpp"
#include "stats/percentile.hpp"
#include "workload/diurnal_trace.hpp"
#include "workload/functionbench.hpp"
#include "workload/load_generator.hpp"

namespace amoeba::obs {
class Profiler;
}  // namespace amoeba::obs

namespace amoeba::exp {

/// Hardware/software configuration of the simulated cluster (Table II).
struct ClusterConfig {
  serverless::PlatformConfig serverless;
  iaas::IaasConfig iaas;
  std::uint64_t seed = 42;
};

/// Table II defaults: 40 cores, 32 GB container pool (256 MB containers →
/// n_max 128 node-wide), NVMe at 2 GB/s, 25 GbE, 1 s cold starts.
[[nodiscard]] ClusterConfig default_cluster();

/// "Just-enough" IaaS sizing (paper §II-B): the smallest VM (integer cores)
/// whose M/M/c model keeps the kQosPercentile latency within the QoS target
/// at the service's peak load, times a 1.15 headroom, rounded up. Memory
/// is a 1 GB base plus one worker's footprint per core.
[[nodiscard]] iaas::VmSpec just_enough_vm(
    const workload::FunctionProfile& profile, const ClusterConfig& cluster);

/// The diurnal trace used to drive a service: peak at its provisioned
/// peak_load_qps, trough at 25% (paper §I: low load < 30% of peak).
[[nodiscard]] workload::DiurnalTraceConfig diurnal_for(
    const workload::FunctionProfile& profile, double period_s,
    double phase = 0.0);

/// Which deployment system manages the foreground benchmark.
enum class DeploySystem {
  kAmoeba,      ///< full system
  kAmoebaNoM,   ///< PCA calibration disabled (§VII-C)
  kAmoebaNoP,   ///< container prewarm disabled (§VII-D)
  kNameko,      ///< pure IaaS baseline
  kOpenWhisk,   ///< pure serverless baseline
};

[[nodiscard]] const char* to_string(DeploySystem s) noexcept;

/// The AmoebaConfig run_managed uses for the managed systems (margins,
/// hysteresis, prewarm headroom, anticipation window), with `system`'s
/// ablation applied (NoM: no PCA, NoP: no prewarm). Exposed so cluster
/// runs and ablations start from the same tuning as the single-service
/// experiments.
[[nodiscard]] core::AmoebaConfig default_amoeba_config(DeploySystem system);

/// One simulated day on the node: the options every driver takes (the
/// base of ManagedRunOptions and SharedNodeOptions). SimNode
/// (node_driver.hpp) sets the day up, runs it and ends it.
struct DayOptions {
  double period_s = 1200.0;  ///< compressed "day"
  double duration_days = 1.0;
  /// Must cover the IaaS VM boot + 3 s; queries arriving earlier are not
  /// counted.
  double warmup_s = 60.0;
  std::uint64_t seed = 42;
  /// Observability sink wired into every Amoeba runtime of the day
  /// (non-owning; nullptr = disabled). DecisionRecords and switch spans
  /// carry the service name, so one sink disentangles N control loops. The
  /// pure baselines have no control loop to observe.
  obs::Observer* observer = nullptr;
  /// Self-profiler for the run (non-owning; nullptr = disabled). The day
  /// attaches it to the calling thread and the engine for the duration of
  /// the run; wall time is attributed per obs::ProfDomain into sim-time
  /// buckets. Pure bookkeeping — the event trace is identical with or
  /// without it (Determinism.ProfilerDoesNotPerturbTheSimulation).
  obs::Profiler* profiler = nullptr;
  /// Fault injection rates. All-zero (the default) runs fault-free and is
  /// byte-identical to a build without the subsystem; any nonzero rate
  /// attaches one FaultInjector (seeded from the run seed, fork 4) to the
  /// container pool, the VM fleet and every contention monitor.
  sim::FaultConfig faults;
};

struct ManagedRunOptions : DayOptions {
  bool with_background = true;   ///< float/dd/cloud_stor at low peak (§VII-A)
  double background_peak_fraction = 0.30;
  /// Forwarded to AmoebaConfig::timeline_period_s: 0 follows the monitor
  /// sample period, negative disables timelines, positive as given.
  double timeline_period_s = 0.0;
  /// Keep every foreground QueryRecord in the result (windowed analyses).
  bool keep_records = false;
  /// Tuning override for ablation studies, in place of
  /// default_amoeba_config. The system's own ablation (NoM, NoP) and
  /// `timeline_period_s` still apply on top of it.
  std::optional<core::AmoebaConfig> amoeba;
};

/// What every run reports about the node it ran on (SimNode,
/// node_driver.hpp).
struct NodeRunResult {
  double duration_s = 0.0;
  /// Hash of the executed event trace (timestamp, event id) — identical
  /// across runs iff the simulation was deterministic (see Engine::trace_hash).
  std::uint64_t trace_hash = 0;
  /// Engine events dispatched during the run (throughput denominators).
  std::uint64_t events_executed = 0;
  /// Injected-fault tallies (all zero when `faults` was all-zero).
  sim::FaultCounters fault_counters;
};

struct ManagedRunResult : NodeRunResult {
  stats::SampleSet latencies;              ///< foreground user queries
  std::vector<workload::QueryRecord> records;  ///< if keep_records
  std::uint64_t queries = 0;
  core::ServiceUsage usage;                ///< foreground, across platforms
  std::vector<core::SwitchEvent> switches; ///< empty for pure baselines
  core::ServiceTimeline timeline;          ///< populated if sampling enabled
  double qos_target_s = 0.0;
  /// Switch-protocol resilience counters (managed systems only).
  std::uint64_t switch_aborts = 0;
  std::uint64_t switch_retries = 0;

  [[nodiscard]] double p95() const { return latencies.quantile(0.95); }
  [[nodiscard]] double violation_fraction() const {
    return latencies.fraction_above(qos_target_s);
  }
};

/// Run one foreground benchmark under the given system, with the paper's
/// background tenants on the shared serverless platform. This is the
/// workhorse behind Figs. 10–14 and 16.
[[nodiscard]] ManagedRunResult run_managed(
    const workload::FunctionProfile& foreground, DeploySystem system,
    const ClusterConfig& cluster, const core::MeterCalibration& calibration,
    const core::ServiceArtifacts& artifacts, const ManagedRunOptions& opt);

/// Background tenants of §VII-A: float, dd and cloud_stor scaled to a low
/// peak, offset in phase so their rushes don't align.
[[nodiscard]] std::vector<workload::FunctionProfile> background_suite(
    double peak_fraction);

}  // namespace amoeba::exp
