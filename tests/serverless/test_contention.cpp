// Contention-physics validation: the cross-function interference the whole
// paper rests on must emerge from the FairShare resources (paper §II-D).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "serverless/platform.hpp"
#include "workload/functionbench.hpp"
#include "workload/load_generator.hpp"

namespace amoeba::serverless {
namespace {

using workload::QueryRecord;

PlatformConfig node_config() {
  PlatformConfig cfg;
  cfg.cores = 8.0;
  cfg.pool_memory_mb = 16384.0;
  cfg.disk_bps = 1.0e9;
  cfg.net_bps = 1.0e9;
  cfg.cold_start_mean_s = 0.5;
  cfg.cold_start_cv = 0.0;
  cfg.keep_alive_s = 120.0;
  return cfg;
}

workload::FunctionProfile subject_cpu() {
  workload::FunctionProfile p;
  p.name = "subject";
  p.exec = {.cpu_seconds = 0.05, .io_bytes = 0.0, .net_bytes = 0.0};
  p.code_bytes = 0.0;
  p.result_bytes = 0.0;
  p.platform_overhead_s = 0.0;
  p.memory_mb = 256.0;
  p.cpu_cv = 0.0;
  p.qos_target_s = 1.0;
  p.peak_load_qps = 20.0;
  return p;
}

/// Mean service latency of `subject` at 5 QPS while `antagonist` runs at
/// `antagonist_qps` (0 = solo).
double subject_latency_with(const workload::FunctionProfile& antagonist,
                            double antagonist_qps,
                            const workload::FunctionProfile& subject) {
  sim::Engine e;
  ServerlessPlatform sp(e, node_config(), sim::Rng(99));
  const FunctionId subject_fn = sp.register_function(subject);
  double sum = 0.0;
  std::uint64_t n = 0;
  workload::ConstantLoadGenerator subject_gen(
      e, sim::Rng(1), 5.0, [&] {
        sp.submit(subject_fn, [&](const QueryRecord& r) {
          if (r.arrival < 5.0) return;  // warmup
          sum += r.breakdown.total() - r.breakdown.queue_s -
                 r.breakdown.cold_start_s;
          ++n;
        });
      });
  std::unique_ptr<workload::ConstantLoadGenerator> antagonist_gen;
  if (antagonist_qps > 0.0) {
    const FunctionId antagonist_fn = sp.register_function(antagonist);
    antagonist_gen = std::make_unique<workload::ConstantLoadGenerator>(
        e, sim::Rng(2), antagonist_qps, [&sp, antagonist_fn] {
          sp.submit(antagonist_fn, [](const QueryRecord&) {});
        });
    antagonist_gen->start();
  }
  subject_gen.start();
  e.run_until(40.0);
  subject_gen.stop();
  if (antagonist_gen) antagonist_gen->stop();
  e.run();
  EXPECT_GT(n, 0u);
  return sum / static_cast<double>(n);
}

TEST(Contention, CpuAntagonistSlowsCpuBoundSubject) {
  const auto subject = subject_cpu();
  const auto antagonist = workload::make_stressor(workload::StressKind::kCpu);
  const double solo = subject_latency_with(antagonist, 0.0, subject);
  // 76 QPS × 0.1 core-s = 7.6 of 8 cores demanded.
  const double contended = subject_latency_with(antagonist, 76.0, subject);
  EXPECT_GT(contended, solo * 1.5)
      << "solo=" << solo << " contended=" << contended;
}

TEST(Contention, IoAntagonistDoesNotSlowCpuBoundSubject) {
  // The paper's core insight (§II-D): a CPU-bound service is insensitive
  // to IO contention, so the same "low load" can be safe or unsafe
  // depending on WHICH resource is contended.
  const auto subject = subject_cpu();
  const auto antagonist =
      workload::make_stressor(workload::StressKind::kDiskIo);
  const double solo = subject_latency_with(antagonist, 0.0, subject);
  // 16 QPS × 50 MB = 800 MB/s of the 1 GB/s disk.
  const double contended = subject_latency_with(antagonist, 16.0, subject);
  EXPECT_LT(contended, solo * 1.10)
      << "solo=" << solo << " contended=" << contended;
}

TEST(Contention, IoAntagonistSlowsIoBoundSubject) {
  auto subject = subject_cpu();
  subject.exec = {.cpu_seconds = 0.002, .io_bytes = 20e6, .net_bytes = 0.0};
  const auto antagonist =
      workload::make_stressor(workload::StressKind::kDiskIo);
  const double solo = subject_latency_with(antagonist, 0.0, subject);
  const double contended = subject_latency_with(antagonist, 16.0, subject);
  EXPECT_GT(contended, solo * 1.5)
      << "solo=" << solo << " contended=" << contended;
}

TEST(Contention, NetworkAntagonistSlowsNetworkBoundSubject) {
  auto subject = subject_cpu();
  subject.exec = {.cpu_seconds = 0.002, .io_bytes = 0.0, .net_bytes = 20e6};
  const auto antagonist =
      workload::make_stressor(workload::StressKind::kNetwork);
  const double solo = subject_latency_with(antagonist, 0.0, subject);
  // 20 QPS × 40 MB = 800 MB/s of the 1 GB/s NIC.
  const double contended = subject_latency_with(antagonist, 20.0, subject);
  EXPECT_GT(contended, solo * 1.5);
}

TEST(Contention, SlowdownGrowsMonotonicallyWithPressure) {
  const auto subject = subject_cpu();
  const auto antagonist = workload::make_stressor(workload::StressKind::kCpu);
  double prev = 0.0;
  for (double qps : {0.0, 30.0, 60.0, 76.0}) {
    const double lat = subject_latency_with(antagonist, qps, subject);
    EXPECT_GE(lat, prev * 0.98) << "at " << qps;  // small noise tolerance
    prev = lat;
  }
}

TEST(Contention, TruePressureAttributesLiveDemandPerFunction) {
  // Ground-truth pressure is the capped demand of each function's live
  // phases: a CPU phase demands one container core, a disk phase the whole
  // (uncapped) disk.
  sim::Engine e;
  ServerlessPlatform sp(e, node_config(), sim::Rng(5));
  auto a = subject_cpu();
  a.name = "a";
  a.exec = {.cpu_seconds = 20.0, .io_bytes = 0.0, .net_bytes = 0.0};
  auto b = a;
  b.name = "b";
  auto c = a;
  c.name = "c";
  c.exec = {.cpu_seconds = 0.0, .io_bytes = 10e9, .net_bytes = 0.0};
  auto idle = a;
  idle.name = "idle";
  const FunctionId fa = sp.register_function(a);
  const FunctionId fb = sp.register_function(b);
  const FunctionId fc = sp.register_function(c);
  const FunctionId f_idle = sp.register_function(idle);
  int done = 0;
  auto count = [&](const QueryRecord&) { ++done; };
  for (const FunctionId f : {fa, fa, fa, fb, fb, fc}) sp.submit(f, count);
  e.run_until(1.0);  // cold starts (0.5 s) are over, every phase is live

  using P = std::array<double, 3>;
  EXPECT_EQ(sp.true_pressure_of(fa), (P{3.0 / 8.0, 0.0, 0.0}));
  EXPECT_EQ(sp.true_pressure_of(fb), (P{2.0 / 8.0, 0.0, 0.0}));
  EXPECT_EQ(sp.true_pressure_of(fc), (P{0.0, 1.0, 0.0}));
  EXPECT_EQ(sp.true_external_pressure(fa), (P{2.0 / 8.0, 1.0, 0.0}));
  EXPECT_EQ(sp.true_external_pressure(fb), (P{3.0 / 8.0, 1.0, 0.0}));
  EXPECT_EQ(sp.true_external_pressure(fc), (P{5.0 / 8.0, 0.0, 0.0}));
  // A function with nothing in flight sees all of it as external.
  EXPECT_EQ(sp.true_pressure_of(f_idle), (P{0.0, 0.0, 0.0}));
  EXPECT_EQ(sp.true_external_pressure(f_idle), (P{5.0 / 8.0, 1.0, 0.0}));

  e.run();
  EXPECT_EQ(done, 6);
  for (const FunctionId f : {fa, fb, fc}) {
    EXPECT_EQ(sp.true_pressure_of(f), (P{0.0, 0.0, 0.0}))
        << "function " << static_cast<std::uint32_t>(f);
    EXPECT_EQ(sp.true_external_pressure(f), (P{0.0, 0.0, 0.0}))
        << "function " << static_cast<std::uint32_t>(f);
  }
}

}  // namespace
}  // namespace amoeba::serverless
