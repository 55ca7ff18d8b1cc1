#include "exp/profiling.hpp"

#include <algorithm>
#include <array>
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

  // The completion captures one pointer and the arrival time, which fits
  // std::function's inline buffer: no allocation per query.
  struct Tally {
    double warmup_s = 0.0;
    stats::SampleSet latencies;
    double sum = 0.0;
    std::uint64_t count = 0;
  } tally{cfg.warmup_s, {}, 0.0, 0};

  workload::ConstantLoadGenerator subject_gen(
      engine, rng.fork(2), subject_qps, [&] {
        sp.submit(subject_fn, [t = &tally, arrival = engine.now()](
                                  const workload::QueryRecord& rec) {
          if (arrival < t->warmup_s) return;
          const double service = rec.breakdown.service_s();
          t->latencies.add(service);
          t->sum += service;
          ++t->count;
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
  out.samples = tally.count;
  out.cold_starts = sp.pool().cold_starts();
  const serverless::FunctionStats& subject_stats = sp.stats(subject_fn);
  out.stranded = subject_stats.submitted - subject_stats.completed;
  if (tally.count > 0) {
    out.mean_latency_s = tally.sum / static_cast<double>(tally.count);
    out.tail_latency_s = tally.latencies.quantile(core::kQosPercentile);
  }
  return out;
}

core::MeterCalibration profile_meters(const ClusterConfig& cluster,
                                      const ProfilingConfig& cfg) {
  cfg.validate();
  const std::size_t m = cfg.pressure_grid.size();
  std::array<workload::FunctionProfile, core::kNumResources> meters;
  for (std::size_t d = 0; d < core::kNumResources; ++d) {
    meters[d] = workload::meter_profile(workload::kAllMeters[d]);
  }

  // One fan-out over every (meter, pressure) cell, highest cell index (the
  // busiest) first; each task writes only its own point.
  std::array<std::vector<core::CurvePoint>, core::kNumResources> points;
  for (auto& curve : points) curve.resize(m);
  const std::size_t cells = core::kNumResources * m;
  parallel_for(cells, cfg.threads, [&](std::size_t task) {
    const std::size_t cell = cells - 1 - task;
    const std::size_t d = cell / m;
    const std::size_t i = cell % m;
    const workload::MeterKind kind = workload::kAllMeters[d];
    const double pressure = cfg.pressure_grid[i];
    const double load = pressure * meter_capacity(kind, cluster) /
                        meter_unit_demand(kind, cluster);
    const CellResult result = run_profile_cell(
        meters[d], load, nullptr, 0.0, cluster, cfg,
        cluster.seed ^ (0x1000u + d * 97 + i));
    // Zero completions = the meter alone saturated the resource at this
    // pressure; clamp to the cell duration (isotonic repair keeps the
    // curve monotone).
    points[d][i] = core::CurvePoint{
        pressure, result.samples > 0 ? result.mean_latency_s
                                     : cfg.cell_duration_s};
  });

  core::MeterCalibration calibration;
  for (std::size_t d = 0; d < core::kNumResources; ++d) {
    calibration.curves[d] = core::MeterCurve(std::move(points[d]));
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

  // One tally per meter; a completion captures a pointer to it and the
  // arrival time, so it stays in std::function's inline buffer.
  struct Tally {
    double warmup_s = 0.0;
    double sum = 0.0;
    std::uint64_t count = 0;
  };
  std::array<Tally, core::kNumResources> tallies;
  for (Tally& t : tallies) t.warmup_s = cfg.warmup_s;

  std::vector<std::unique_ptr<workload::ConstantLoadGenerator>> gens;
  for (std::size_t d = 0; d < core::kNumResources; ++d) {
    const serverless::FunctionId fn =
        sp.register_function(workload::meter_profile(workload::kAllMeters[d]));
    gens.push_back(std::make_unique<workload::ConstantLoadGenerator>(
        engine, rng.fork(10 + d), workload::kMeterProbeQps,
        [&sp, &engine, fn, t = &tallies[d]] {
          sp.submit(fn, [t, arrival = engine.now()](
                            const workload::QueryRecord& rec) {
            if (arrival < t->warmup_s) return;
            t->sum += rec.breakdown.service_s();
            t->count += 1;
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
    AMOEBA_ASSERT_MSG(tallies[d].count > 0, "probe produced no samples");
    out[d] = tallies[d].sum / static_cast<double>(tallies[d].count);
  }
  return out;
}

}  // namespace

core::ServiceArtifacts profile_service(
    const workload::FunctionProfile& profile, const ClusterConfig& cluster,
    const core::MeterCalibration& calibration, const ProfilingConfig& cfg) {
  cfg.validate();
  AMOEBA_EXPECTS(calibration.complete());

  // The three latency surfaces (Fig. 9): pressure rows × load columns.
  const std::size_t np = cfg.pressure_grid.size();
  const std::size_t nl = cfg.load_fractions.size();
  const std::size_t per_surface = np * nl;
  std::vector<double> loads(nl);
  for (std::size_t j = 0; j < nl; ++j) {
    loads[j] = cfg.load_fractions[j] * profile.peak_load_qps;
  }
  std::array<workload::FunctionProfile, core::kNumResources> stressors;
  for (std::size_t d = 0; d < core::kNumResources; ++d) {
    stressors[d] = workload::make_stressor(stress_kind_for_dim(d));
  }

  // One fan-out over every task of the call. Grid cell 0 is the solo run
  // (L0 at a low probing load) and cell 1 + d·np·nl + idx is surface d's
  // cell idx. The two footprint probes run longest, so they start first,
  // then the cells from the highest index down. Each task writes only its
  // own slot.
  const std::size_t cells = 1 + core::kNumResources * per_surface;
  const double probe_load = 0.5 * profile.peak_load_qps;
  CellResult solo;
  std::array<std::vector<double>, core::kNumResources> lat;
  for (auto& surface : lat) surface.assign(per_surface, 0.0);
  std::array<double, core::kNumResources> idle{};
  std::array<double, core::kNumResources> loaded{};
  parallel_for(2 + cells, cfg.threads, [&](std::size_t task) {
    if (task == 0) {
      loaded = probe_latencies(&profile, probe_load, cluster, cfg,
                               cluster.seed ^ 0x4001u);
      return;
    }
    if (task == 1) {
      idle = probe_latencies(nullptr, 0.0, cluster, cfg,
                             cluster.seed ^ 0x4000u);
      return;
    }
    const std::size_t cell = cells - 1 - (task - 2);
    if (cell == 0) {
      solo = run_profile_cell(profile, cfg.solo_probe_qps, nullptr, 0.0,
                              cluster, cfg, cluster.seed ^ 0x2000u);
      return;
    }
    const std::size_t d = (cell - 1) / per_surface;
    const std::size_t idx = (cell - 1) % per_surface;
    const std::size_t pi = idx / nl;
    const std::size_t li = idx % nl;
    const double stress_qps = stressor_load_for_pressure(
        stress_kind_for_dim(d), cfg.pressure_grid[pi], cluster);
    const CellResult result = run_profile_cell(
        profile, loads[li], &stressors[d], stress_qps, cluster, cfg,
        cluster.seed ^ (0x3000u + d * 1009 + idx));
    // A cell that completed nothing is saturated (the demanded pressure
    // exceeds the resource's effective capacity, e.g. beyond the CPU
    // interference knee). Record the cell duration as the latency: the
    // controller will correctly conclude no load is safe there.
    lat[d][idx] = result.samples > 0 ? result.tail_latency_s
                                     : cfg.cell_duration_s;
  });

  core::ServiceArtifacts art;
  AMOEBA_ASSERT(solo.samples > 0);
  art.solo_latency_s = solo.tail_latency_s;
  art.alpha_s = 0.0;
  for (std::size_t d = 0; d < core::kNumResources; ++d) {
    art.surfaces[d] =
        core::LatencySurface(cfg.pressure_grid, loads, std::move(lat[d]));
  }

  // Pressure footprint, measured through the meters (not ground truth):
  // pressures with the service resident minus the idle-platform baseline,
  // normalized per query/second.
  for (std::size_t d = 0; d < core::kNumResources; ++d) {
    const core::MeterCurve& curve = *calibration.curves[d];
    const double p_idle = curve.pressure_for(idle[d]);
    const double p_loaded = curve.pressure_for(loaded[d]);
    art.pressure_per_qps[d] = std::max(0.0, p_loaded - p_idle) / probe_load;
  }
  return art;
}

}  // namespace amoeba::exp
