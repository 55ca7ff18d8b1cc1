#include "exp/profiling.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

namespace amoeba::exp {
namespace {

ClusterConfig small_cluster() {
  auto c = default_cluster();
  // Shrink the node so profiling cells reach high pressure with less load
  // (keeps the test fast on one core).
  c.serverless.cores = 8.0;
  c.serverless.disk_bps = 1.0e9;
  c.serverless.net_bps = 1.0e9;
  c.serverless.pool_memory_mb = 16384.0;
  return c;
}

ProfilingConfig quick_config() {
  ProfilingConfig cfg;
  cfg.pressure_grid = {0.05, 0.45, 0.85};
  cfg.load_fractions = {0.1, 0.5, 1.0};
  cfg.cell_duration_s = 12.0;
  cfg.warmup_s = 3.0;
  cfg.threads = 1;
  return cfg;
}

TEST(Profiling, StressorLoadInvertsPressure) {
  const auto cluster = small_cluster();
  // CPU stressor: 0.1 core-s per query; pressure 0.5 on 8 cores = 40 qps.
  EXPECT_NEAR(stressor_load_for_pressure(workload::StressKind::kCpu, 0.5,
                                         cluster),
              40.0, 1e-9);
  // IO stressor: 50 MB raw per query, inflated by the container IO tax
  // (0.85): 0.5 GB/s of 1 GB/s effective = 8.5 qps.
  const double eff = cluster.serverless.io_efficiency;
  EXPECT_NEAR(stressor_load_for_pressure(workload::StressKind::kDiskIo, 0.5,
                                         cluster),
              10.0 * eff, 1e-9);
}

TEST(Profiling, CellProducesSamples) {
  const auto cluster = small_cluster();
  const auto cfg = quick_config();
  const auto subject = workload::make_stressor(workload::StressKind::kCpu);
  const auto cell =
      run_profile_cell(subject, 5.0, nullptr, 0.0, cluster, cfg, 1);
  EXPECT_GT(cell.samples, 30u);
  EXPECT_GT(cell.mean_latency_s, 0.0);
  EXPECT_GE(cell.tail_latency_s, cell.mean_latency_s);
}

TEST(Profiling, StressedCellIsBitIdenticalToRecordedAnchor) {
  // A CPU-heavy subject next to a CPU stressor at 0.85 pressure on a node
  // with CPU interference: the densest fair-share mix a profiling cell
  // produces. The expected bit patterns were recorded on the virtual-clock
  // FairShareResource; any change to the contention arithmetic moves them.
  const auto cluster = small_cluster();
  ASSERT_GT(cluster.serverless.cpu_interference, 0.0);
  const auto cfg = quick_config();
  workload::FunctionProfile subject = workload::make_float();
  subject.peak_load_qps = 24.0;
  const auto stressor = workload::make_stressor(workload::StressKind::kCpu);
  const double stressor_qps = stressor_load_for_pressure(
      workload::StressKind::kCpu, 0.85, cluster);
  const auto cell = run_profile_cell(subject, 12.0, &stressor, stressor_qps,
                                     cluster, cfg, 7);
  EXPECT_EQ(cell.samples, 104u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(cell.tail_latency_s),
            0x3ffb7067da511acdULL)
      << std::hex << std::bit_cast<std::uint64_t>(cell.tail_latency_s);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(cell.mean_latency_s),
            0x3ff856d7933060b2ULL)
      << std::hex << std::bit_cast<std::uint64_t>(cell.mean_latency_s);
  // The per-stream water-filling this replaced gave these bit patterns; the
  // physics is the same up to float rounding.
  const double old_tail = std::bit_cast<double>(0x3ffb7067da511aefULL);
  const double old_mean = std::bit_cast<double>(0x3ff856d7933060c1ULL);
  EXPECT_NEAR(cell.tail_latency_s, old_tail, 1e-12 * old_tail);
  EXPECT_NEAR(cell.mean_latency_s, old_mean, 1e-12 * old_mean);
}

TEST(Profiling, SaturatedCpuCellStrandsQueuedSubjectQueries) {
  // Characterizes a known defect. dd at half its peak, 7.5 qps, beside a CPU
  // stressor at 0.92 pressure, on the default node with the figure benches'
  // 60 s cells: stressor containers fill the pool's memory, subject queries
  // queue, and only the function whose event fired is re-pumped. After the
  // drain 439 of the 447 subject queries are still queued, and none of the
  // 8 that ran arrived after warm-up. A fix that re-pumps every function
  // when memory frees will move these numbers (and the latency surfaces).
  const ClusterConfig cluster = default_cluster();
  ProfilingConfig cfg;
  cfg.cell_duration_s = 60.0;
  cfg.warmup_s = 10.0;
  const workload::FunctionProfile subject = workload::make_dd();
  ASSERT_EQ(0.5 * subject.peak_load_qps, 7.5);
  const auto stressor = workload::make_stressor(workload::StressKind::kCpu);
  const double stressor_qps = stressor_load_for_pressure(
      workload::StressKind::kCpu, 0.92, cluster);
  // The seed profile_service gives this cell of the 6 × 5 bench grid
  // (surface 0, pressure row 5, load column 2).
  const auto cell = run_profile_cell(subject, 7.5, &stressor, stressor_qps,
                                     cluster, cfg,
                                     cluster.seed ^ (0x3000u + 5 * 5 + 2));
  EXPECT_EQ(cell.samples, 0u);
  EXPECT_EQ(cell.stranded, 439u);

  // An unsaturated cell strands nothing.
  const auto calm = run_profile_cell(subject, 7.5, &stressor,
                                     stressor_load_for_pressure(
                                         workload::StressKind::kCpu, 0.2,
                                         cluster),
                                     cluster, cfg, 7);
  EXPECT_GT(calm.samples, 0u);
  EXPECT_EQ(calm.stranded, 0u);
}

TEST(Profiling, MeterCurvesAreCalibrated) {
  const auto cluster = small_cluster();
  const auto cal = profile_meters(cluster, quick_config());
  ASSERT_TRUE(cal.complete());
  for (std::size_t d = 0; d < core::kNumResources; ++d) {
    const auto& curve = *cal.curves[d];
    EXPECT_EQ(curve.points().size(), 3u);
    // Latency grows (weakly) with pressure; the high-pressure end is
    // strictly slower than solo.
    EXPECT_GT(curve.points().back().latency,
              curve.base_latency() * 1.02)
        << "meter dim " << d;
  }
}

TEST(Profiling, ServiceArtifactsComplete) {
  const auto cluster = small_cluster();
  const auto cfg = quick_config();
  const auto cal = profile_meters(cluster, cfg);

  // A CPU-heavy subject scaled to the small node.
  workload::FunctionProfile subject = workload::make_float();
  subject.peak_load_qps = 24.0;  // 24 × 0.08 = 1.9 of 8 cores at peak

  const auto art = profile_service(subject, cluster, cal, cfg);
  ASSERT_TRUE(art.complete());
  EXPECT_GT(art.solo_latency_s, 0.08);  // at least the cpu work
  EXPECT_LT(art.solo_latency_s, 0.2);

  // The CPU surface must grow along the pressure axis...
  const auto& cpu_surface = *art.surfaces[core::kCpuDim];
  const double cpu_rise = cpu_surface.at(0.85, 2.4) / cpu_surface.at(0.05, 2.4);
  EXPECT_GT(cpu_rise, 1.3);
  // ...and dominate the IO surface's rise. (float is not perfectly flat on
  // IO: its per-query code load crosses the contended disk — genuine
  // physics the surfaces are supposed to capture.)
  const auto& io_surface = *art.surfaces[core::kIoDim];
  const double io_rise = io_surface.at(0.85, 2.4) / io_surface.at(0.05, 2.4);
  EXPECT_LT(io_rise, cpu_rise);
  EXPECT_LT(io_rise, 1.6);

  // Footprint: the service presses mainly on CPU.
  EXPECT_GT(art.pressure_per_qps[core::kCpuDim], 0.0);
  EXPECT_GE(art.pressure_per_qps[core::kIoDim], 0.0);
  // Sanity: cpu footprint per qps ~ cpu_seconds / cores = 0.01.
  EXPECT_NEAR(art.pressure_per_qps[core::kCpuDim], 0.08 / 8.0, 0.006);
}

/// Every double of a calibration and a service's artifacts, in a fixed
/// order: curve points, then L0, α, each surface's axes and cells, and the
/// footprint.
std::vector<double> artifact_doubles(const core::MeterCalibration& cal,
                                     const core::ServiceArtifacts& art) {
  std::vector<double> out;
  for (const auto& curve : cal.curves) {
    for (const auto& p : curve->points()) {
      out.push_back(p.pressure);
      out.push_back(p.latency);
    }
  }
  out.push_back(art.solo_latency_s);
  out.push_back(art.alpha_s);
  for (const auto& surface : art.surfaces) {
    const auto& ps = surface->pressures();
    const auto& ls = surface->loads();
    out.insert(out.end(), ps.begin(), ps.end());
    out.insert(out.end(), ls.begin(), ls.end());
    for (std::size_t pi = 0; pi < ps.size(); ++pi) {
      for (std::size_t li = 0; li < ls.size(); ++li) {
        out.push_back(surface->value(pi, li));
      }
    }
  }
  out.insert(out.end(), art.pressure_per_qps.begin(),
             art.pressure_per_qps.end());
  return out;
}

/// FNV-1a over the bit patterns, one 64-bit word at a time.
std::uint64_t fnv_bits(const std::vector<double>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double v : values) {
    h ^= std::bit_cast<std::uint64_t>(v);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(Profiling, ArtifactsAreBitIdenticalAcrossThreadCounts) {
  // Every profiling task owns its engine, RNG seed and output slot, so the
  // worker count must not show in the artifacts: a bench's tables may not
  // depend on the host's core count.
  const auto cluster = small_cluster();
  workload::FunctionProfile subject = workload::make_float();
  subject.peak_load_qps = 24.0;
  std::vector<double> runs[2];
  const unsigned threads[2] = {1, 4};
  for (int r = 0; r < 2; ++r) {
    ProfilingConfig cfg = quick_config();
    cfg.threads = threads[r];
    const auto cal = profile_meters(cluster, cfg);
    const auto art = profile_service(subject, cluster, cal, cfg);
    ASSERT_TRUE(cal.complete());
    ASSERT_TRUE(art.complete());
    runs[r] = artifact_doubles(cal, art);
  }
  ASSERT_EQ(runs[0].size(), runs[1].size());
  for (std::size_t i = 0; i < runs[0].size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(runs[0][i]),
              std::bit_cast<std::uint64_t>(runs[1][i]))
        << "double " << i;
  }
  // Recorded before profiling became one fan-out per call.
  EXPECT_EQ(fnv_bits(runs[0]), 0x0fece940f3a93ec6ULL)
      << std::hex << fnv_bits(runs[0]);
}

TEST(Profiling, ConfigValidation) {
  ProfilingConfig cfg = quick_config();
  cfg.pressure_grid = {0.5};
  EXPECT_THROW(cfg.validate(), ContractError);
  cfg = quick_config();
  cfg.warmup_s = 20.0;  // >= duration
  EXPECT_THROW(cfg.validate(), ContractError);
  cfg = quick_config();
  cfg.load_fractions = {0.5, 0.4};
  EXPECT_THROW(cfg.validate(), ContractError);
}

}  // namespace
}  // namespace amoeba::exp
