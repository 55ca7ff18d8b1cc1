// End-to-end smoke of the evaluation pipeline: profiling -> run_managed
// under every deployment system, checking the paper's qualitative claims
// on a compressed scenario.
#include <gtest/gtest.h>

#include <algorithm>

#include "exp/profiling.hpp"
#include "exp/scenario.hpp"

namespace amoeba::exp {
namespace {

// Shared, lazily-built profiling artifacts (profiling is the expensive
// part; build once for the whole suite).
struct SharedSetup {
  ClusterConfig cluster;
  core::MeterCalibration calibration;
  workload::FunctionProfile foreground;
  core::ServiceArtifacts artifacts;

  SharedSetup() : cluster(default_cluster()) {
    ProfilingConfig cfg;
    cfg.pressure_grid = {0.05, 0.45, 0.85};
    cfg.load_fractions = {0.1, 0.5, 1.0};
    cfg.cell_duration_s = 12.0;
    cfg.warmup_s = 3.0;
    cfg.threads = 1;
    calibration = profile_meters(cluster, cfg);
    foreground = workload::make_float();
    artifacts = profile_service(foreground, cluster, calibration, cfg);
  }
};

const SharedSetup& setup() {
  static SharedSetup s;
  return s;
}

ManagedRunOptions quick_options() {
  ManagedRunOptions opt;
  opt.period_s = 420.0;
  opt.duration_days = 1.0;
  opt.warmup_s = 40.0;
  opt.with_background = true;
  opt.background_peak_fraction = 0.25;
  opt.seed = 7;
  return opt;
}

TEST(EndToEnd, NamekoMeetsQos) {
  const auto& s = setup();
  const auto r = run_managed(s.foreground, DeploySystem::kNameko, s.cluster,
                             s.calibration, s.artifacts, quick_options());
  ASSERT_GT(r.queries, 5000u);
  EXPECT_LT(r.p95(), r.qos_target_s);
}

TEST(EndToEnd, OpenWhiskServesEverythingServerless) {
  const auto& s = setup();
  const auto r = run_managed(s.foreground, DeploySystem::kOpenWhisk,
                             s.cluster, s.calibration, s.artifacts,
                             quick_options());
  ASSERT_GT(r.queries, 5000u);
  // Pure serverless never rents a VM.
  EXPECT_TRUE(r.switches.empty());
}

TEST(EndToEnd, AmoebaMeetsQosAndSavesResources) {
  const auto& s = setup();
  const auto opts = quick_options();
  const auto amoeba = run_managed(s.foreground, DeploySystem::kAmoeba,
                                  s.cluster, s.calibration, s.artifacts,
                                  opts);
  const auto nameko = run_managed(s.foreground, DeploySystem::kNameko,
                                  s.cluster, s.calibration, s.artifacts,
                                  opts);
  ASSERT_GT(amoeba.queries, 5000u);
  // The headline claims (Fig. 10/11): QoS held, resources reduced.
  EXPECT_LT(amoeba.p95(), amoeba.qos_target_s);
  EXPECT_LT(amoeba.usage.cpu_core_seconds, nameko.usage.cpu_core_seconds);
  EXPECT_LT(amoeba.usage.memory_mb_seconds, nameko.usage.memory_mb_seconds);
  // It actually used the serverless platform at the trough.
  ASSERT_FALSE(amoeba.switches.empty());
  EXPECT_EQ(amoeba.switches.front().to, core::DeployMode::kServerless);
}

TEST(EndToEnd, SwitchEventsAlternateDirections) {
  const auto& s = setup();
  const auto r = run_managed(s.foreground, DeploySystem::kAmoeba, s.cluster,
                             s.calibration, s.artifacts, quick_options());
  for (std::size_t i = 1; i < r.switches.size(); ++i) {
    EXPECT_NE(r.switches[i].to, r.switches[i - 1].to)
        << "switch " << i << " repeats direction";
  }
}

TEST(EndToEnd, TimelineSamplingWorksInManagedRun) {
  const auto& s = setup();
  auto opt = quick_options();
  opt.timeline_period_s = 5.0;
  const auto r = run_managed(s.foreground, DeploySystem::kAmoeba, s.cluster,
                             s.calibration, s.artifacts, opt);
  EXPECT_GT(r.timeline.mode.size(), 50u);
  double peak_qps = 0.0;
  for (const auto& p : r.timeline.load_qps.points()) {
    peak_qps = std::max(peak_qps, p.value);
  }
  EXPECT_GT(peak_qps, 50.0);  // saw the rush
}

}  // namespace
}  // namespace amoeba::exp
