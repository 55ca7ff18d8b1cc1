#include "exp/profiling.hpp"

#include <memory>
#include <optional>
#include <utility>

#include "exp/sweep.hpp"
#include "workload/load_generator.hpp"

namespace amoeba::exp {

void ProfilingConfig::validate() const {
  AMOEBA_EXPECTS(pressure_grid.size() >= 2);
  AMOEBA_EXPECTS(load_fractions.size() >= 2);
  for (std::size_t i = 1; i < pressure_grid.size(); ++i) {
    AMOEBA_EXPECTS(pressure_grid[i] > pressure_grid[i - 1]);
  }
  for (std::size_t i = 1; i < load_fractions.size(); ++i) {
    AMOEBA_EXPECTS(load_fractions[i] > load_fractions[i - 1]);
  }
  AMOEBA_EXPECTS(pressure_grid.front() > 0.0);
  AMOEBA_EXPECTS(load_fractions.front() > 0.0);
  AMOEBA_EXPECTS(cell_duration_s > 0.0);
  AMOEBA_EXPECTS(warmup_s >= 0.0 && warmup_s < cell_duration_s);
  AMOEBA_EXPECTS(solo_probe_qps > 0.0);
}

namespace {

/// Effective demand (work units per query) a stressor puts on its target
/// resource, including the platform's container IO efficiency tax —
/// pressure labels must be in the same units the device actually serves.
double stressor_unit_demand(workload::StressKind kind,
                            const workload::FunctionProfile& p,
                            const ClusterConfig& cluster) {
  switch (kind) {
    case workload::StressKind::kCpu:
      return p.exec.cpu_seconds;
    case workload::StressKind::kDiskIo:
      return p.exec.io_bytes / cluster.serverless.io_efficiency;
    case workload::StressKind::kNetwork:
      return p.exec.net_bytes;
  }
  return 0.0;
}

double resource_capacity(workload::StressKind kind,
                         const ClusterConfig& cluster) {
  switch (kind) {
    case workload::StressKind::kCpu: return cluster.serverless.cores;
    case workload::StressKind::kDiskIo: return cluster.serverless.disk_bps;
    case workload::StressKind::kNetwork: return cluster.serverless.net_bps;
  }
  return 0.0;
}

workload::StressKind stress_kind_for_dim(std::size_t dim) {
  switch (dim) {
    case core::kCpuDim: return workload::StressKind::kCpu;
    case core::kIoDim: return workload::StressKind::kDiskIo;
    default: return workload::StressKind::kNetwork;
  }
}

/// Meter effective demand on its own primary resource (for the Fig. 8
/// pressure axis), including the container IO efficiency tax.
double meter_unit_demand(workload::MeterKind kind,
                         const ClusterConfig& cluster) {
  const auto p = workload::meter_profile(kind);
  switch (kind) {
    case workload::MeterKind::kCpuMemory:
      return p.exec.cpu_seconds;
    case workload::MeterKind::kDiskIo:
      return (p.exec.io_bytes + p.code_bytes) /
             cluster.serverless.io_efficiency;
    case workload::MeterKind::kNetwork:
      return p.exec.net_bytes + p.result_bytes;
  }
  return 0.0;
}

double meter_capacity(workload::MeterKind kind, const ClusterConfig& cluster) {
  switch (kind) {
    case workload::MeterKind::kCpuMemory: return cluster.serverless.cores;
    case workload::MeterKind::kDiskIo: return cluster.serverless.disk_bps;
    case workload::MeterKind::kNetwork: return cluster.serverless.net_bps;
  }
  return 0.0;
}

}  // namespace

double stressor_load_for_pressure(workload::StressKind kind, double pressure,
                                  const ClusterConfig& cluster) {
  AMOEBA_EXPECTS(pressure > 0.0);
  const auto profile = workload::make_stressor(kind);
  const double demand = stressor_unit_demand(kind, profile, cluster);
  AMOEBA_ASSERT(demand > 0.0);
  return pressure * resource_capacity(kind, cluster) / demand;
}

CellResult run_profile_cell(const workload::FunctionProfile& subject,
                            double subject_qps,
                            const workload::FunctionProfile* stressor,
                            double stressor_qps, const ClusterConfig& cluster,
                            const ProfilingConfig& cfg, std::uint64_t seed) {
  AMOEBA_EXPECTS(subject_qps > 0.0);
  sim::Engine engine;
  sim::Rng rng(seed);
  serverless::ServerlessPlatform sp(engine, cluster.serverless, rng.fork(1));
  const serverless::FunctionId subject_fn = sp.register_function(subject);
  std::optional<serverless::FunctionId> stressor_fn;
  if (stressor != nullptr) {
    AMOEBA_EXPECTS(stressor_qps > 0.0);
    stressor_fn = sp.register_function(*stressor);
  }

  stats::SampleSet service_latencies;
  double sum = 0.0;
  std::uint64_t count = 0;
  const double warmup = cfg.warmup_s;

  workload::ConstantLoadGenerator subject_gen(
      engine, rng.fork(2), subject_qps, [&] {
        sp.submit(subject_fn, [&, arrival = engine.now()](
                                    const workload::QueryRecord& rec) {
          if (arrival < warmup) return;
          const double service = rec.breakdown.service_s();
          service_latencies.add(service);
          sum += service;
          ++count;
        });
      });

  std::unique_ptr<workload::ConstantLoadGenerator> stress_gen;
  if (stressor_fn.has_value()) {
    stress_gen = std::make_unique<workload::ConstantLoadGenerator>(
        engine, rng.fork(3), stressor_qps, [&sp, fn = *stressor_fn] {
          sp.submit(fn, [](const workload::QueryRecord&) {});
        });
    stress_gen->start();
  }
  subject_gen.start();
  engine.run_until(cfg.cell_duration_s);
  subject_gen.stop();
  if (stress_gen) stress_gen->stop();
  // Drain in-flight work so tail samples near the end are not lost.
  engine.run();

  CellResult out;
  out.samples = count;
  if (count > 0) {
    out.mean_latency_s = sum / static_cast<double>(count);
    out.tail_latency_s = service_latencies.quantile(core::kQosPercentile);
  }
  return out;
}

core::MeterCalibration profile_meters(const ClusterConfig& cluster,
                                      const ProfilingConfig& cfg) {
  cfg.validate();
  core::MeterCalibration calibration;
  const std::size_t m = cfg.pressure_grid.size();

  for (std::size_t d = 0; d < core::kNumResources; ++d) {
    const workload::MeterKind kind = workload::kAllMeters[d];
    const auto meter = workload::meter_profile(kind);
    const double demand = meter_unit_demand(kind, cluster);
    const double capacity = meter_capacity(kind, cluster);
    std::vector<core::CurvePoint> points(m);

    parallel_for(m, cfg.threads, [&](std::size_t i) {
      const double pressure = cfg.pressure_grid[i];
      const double load = pressure * capacity / demand;
      const CellResult cell = run_profile_cell(
          meter, load, nullptr, 0.0, cluster, cfg,
          cluster.seed ^ (0x1000u + d * 97 + i));
      // Zero completions = the meter alone saturated the resource at this
      // pressure; clamp to the cell duration (isotonic repair keeps the
      // curve monotone).
      points[i] = core::CurvePoint{
          pressure, cell.samples > 0 ? cell.mean_latency_s
                                     : cfg.cell_duration_s};
    });
    calibration.curves[d] = core::MeterCurve(std::move(points));
  }
  return calibration;
}

namespace {

/// Mean probe-meter latencies with an optional resident subject (used to
/// measure a service's pressure footprint through the meters alone).
std::array<double, core::kNumResources> probe_latencies(
    const workload::FunctionProfile* subject, double subject_qps,
    const ClusterConfig& cluster, const ProfilingConfig& cfg,
    std::uint64_t seed) {
  sim::Engine engine;
  sim::Rng rng(seed);
  serverless::ServerlessPlatform sp(engine, cluster.serverless, rng.fork(1));

  std::array<double, core::kNumResources> sums{};
  std::array<std::uint64_t, core::kNumResources> counts{};

  std::vector<std::unique_ptr<workload::ConstantLoadGenerator>> gens;
  for (std::size_t d = 0; d < core::kNumResources; ++d) {
    const serverless::FunctionId fn =
        sp.register_function(workload::meter_profile(workload::kAllMeters[d]));
    gens.push_back(std::make_unique<workload::ConstantLoadGenerator>(
        engine, rng.fork(10 + d), workload::kMeterProbeQps,
        [&, d, fn] {
          sp.submit(fn, [&, d, arrival = engine.now()](
                              const workload::QueryRecord& rec) {
            if (arrival < cfg.warmup_s) return;
            sums[d] += rec.breakdown.service_s();
            counts[d] += 1;
          });
        }));
  }
  std::unique_ptr<workload::ConstantLoadGenerator> subject_gen;
  if (subject != nullptr) {
    const serverless::FunctionId fn = sp.register_function(*subject);
    subject_gen = std::make_unique<workload::ConstantLoadGenerator>(
        engine, rng.fork(20), subject_qps, [&sp, fn] {
          sp.submit(fn, [](const workload::QueryRecord&) {});
        });
    subject_gen->start();
  }
  for (auto& g : gens) g->start();
  engine.run_until(cfg.cell_duration_s * 2.0);  // probes are only 1 QPS
  for (auto& g : gens) g->stop();
  if (subject_gen) subject_gen->stop();
  engine.run();

  std::array<double, core::kNumResources> out{};
  for (std::size_t d = 0; d < core::kNumResources; ++d) {
    AMOEBA_ASSERT_MSG(counts[d] > 0, "probe produced no samples");
    out[d] = sums[d] / static_cast<double>(counts[d]);
  }
  return out;
}

}  // namespace

core::ServiceArtifacts profile_service(
    const workload::FunctionProfile& profile, const ClusterConfig& cluster,
    const core::MeterCalibration& calibration, const ProfilingConfig& cfg) {
  cfg.validate();
  AMOEBA_EXPECTS(calibration.complete());
  core::ServiceArtifacts art;

  // L0: solo run at a low probing load.
  const CellResult solo =
      run_profile_cell(profile, cfg.solo_probe_qps, nullptr, 0.0, cluster,
                       cfg, cluster.seed ^ 0x2000u);
  AMOEBA_ASSERT(solo.samples > 0);
  art.solo_latency_s = solo.tail_latency_s;
  art.alpha_s = 0.0;

  // The three latency surfaces (Fig. 9): pressure rows × load columns.
  const std::size_t np = cfg.pressure_grid.size();
  const std::size_t nl = cfg.load_fractions.size();
  std::vector<double> loads(nl);
  for (std::size_t j = 0; j < nl; ++j) {
    loads[j] = cfg.load_fractions[j] * profile.peak_load_qps;
  }

  for (std::size_t d = 0; d < core::kNumResources; ++d) {
    const workload::StressKind kind = stress_kind_for_dim(d);
    const auto stressor = workload::make_stressor(kind);
    std::vector<double> lat(np * nl, 0.0);

    parallel_for(np * nl, cfg.threads, [&](std::size_t idx) {
      const std::size_t pi = idx / nl;
      const std::size_t li = idx % nl;
      const double stress_qps =
          stressor_load_for_pressure(kind, cfg.pressure_grid[pi], cluster);
      const CellResult cell = run_profile_cell(
          profile, loads[li], &stressor, stress_qps, cluster, cfg,
          cluster.seed ^ (0x3000u + d * 1009 + idx));
      // A cell that completed nothing is saturated (the demanded pressure
      // exceeds the resource's effective capacity, e.g. beyond the CPU
      // interference knee). Record the cell duration as the latency: the
      // controller will correctly conclude no load is safe there.
      lat[idx] = cell.samples > 0 ? cell.tail_latency_s
                                  : cfg.cell_duration_s;
    });
    art.surfaces[d] = core::LatencySurface(cfg.pressure_grid, loads,
                                           std::move(lat));
  }

  // Pressure footprint, measured through the meters (not ground truth):
  // pressures with the service resident minus the idle-platform baseline,
  // normalized per query/second.
  const double probe_load = 0.5 * profile.peak_load_qps;
  const auto idle = probe_latencies(nullptr, 0.0, cluster, cfg,
                                    cluster.seed ^ 0x4000u);
  const auto loaded = probe_latencies(&profile, probe_load, cluster, cfg,
                                      cluster.seed ^ 0x4001u);
  for (std::size_t d = 0; d < core::kNumResources; ++d) {
    const core::MeterCurve& curve = *calibration.curves[d];
    const double p_idle = curve.pressure_for(idle[d]);
    const double p_loaded = curve.pressure_for(loaded[d]);
    art.pressure_per_qps[d] = std::max(0.0, p_loaded - p_idle) / probe_load;
  }
  return art;
}

}  // namespace amoeba::exp
