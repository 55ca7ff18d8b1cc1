// Property and scenario tests for exp::run_cluster.
//
// The cluster runtime is exercised the way a fuzzer would: many random
// (seed, N) combinations, each checked against invariants that must hold
// for ANY cluster run — resource-accounting conservation (the container
// pool cannot reserve more memory-seconds than capacity x duration), no
// tenant starves, pool occupancy stays within the node-wide budget, and
// the admission arbiter's grants add up. Scenario tests pin the two
// regimes the design doc calls out: a budget tight enough that the
// arbiter must shrink asks, and aligned diurnal phases — the worst case
// for the coupled control loops — which must not oscillate.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "exp/cluster.hpp"
#include "exp/profiling.hpp"
#include "exp/sweep.hpp"
#include "workload/functionbench.hpp"

namespace amoeba::exp {
namespace {

// Coarse profiling grid (same spirit as the determinism checker): enough
// structure for the control loop to act on, cheap enough for a unit test.
struct Fixture {
  ClusterConfig cluster;
  core::MeterCalibration calibration;
  std::vector<workload::FunctionProfile> bases;
  std::vector<core::ServiceArtifacts> artifacts;

  Fixture() : cluster(default_cluster()) {
    ProfilingConfig cfg;
    cfg.pressure_grid = {0.05, 0.45, 0.85};
    cfg.load_fractions = {0.1, 0.5, 1.0};
    cfg.cell_duration_s = 10.0;
    cfg.warmup_s = 3.0;
    cfg.threads = 1;
    calibration = profile_meters(cluster, cfg);
    bases = {workload::make_float(), workload::make_dd()};
    for (const auto& b : bases) {
      artifacts.push_back(profile_service(b, cluster, calibration, cfg));
    }
  }
};

const Fixture& fix() {
  static Fixture f;
  return f;
}

std::vector<ClusterServiceSpec> make_specs(int n, double peak_fraction) {
  const Fixture& f = fix();
  std::vector<ClusterServiceSpec> specs;
  specs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const std::size_t b = static_cast<std::size_t>(i) % f.bases.size();
    specs.push_back(ClusterServiceSpec{
        workload::as_tenant(f.bases[b], i, peak_fraction), f.artifacts[b],
        static_cast<double>(i) / static_cast<double>(n)});
  }
  return specs;
}

ClusterRunOptions small_options(std::uint64_t seed) {
  ClusterRunOptions opt;
  opt.period_s = 240.0;
  opt.duration_days = 1.0;
  opt.warmup_s = 40.0;
  opt.seed = seed;
  opt.node_container_budget = 48;
  opt.meter_reserve_containers = 6;
  return opt;
}

/// Invariants that must hold for ANY fault-free cluster run.
void check_invariants(const ClusterRunResult& r, int n,
                      const ClusterRunOptions& opt) {
  ASSERT_EQ(r.services.size(), static_cast<std::size_t>(n));

  // Conservation: the pool cannot reserve more container-memory-seconds
  // than its capacity sustained for the whole run.
  const double pool_mb = fix().cluster.serverless.pool_memory_mb;
  EXPECT_GT(r.pool_memory_mb_seconds, 0.0);
  EXPECT_LE(r.pool_memory_mb_seconds,
            pool_mb * r.duration_s * (1.0 + 1e-9));
  EXPECT_LE(r.peak_pool_memory_mb, pool_mb);

  // Occupancy: every function is capped, so the pool high-water mark can
  // never exceed the node-wide container budget.
  EXPECT_LE(r.peak_pool_containers, opt.node_container_budget);

  int granted = 0;
  std::uint64_t denied = 0;
  for (const auto& s : r.services) {
    EXPECT_GT(s.queries, 50u) << s.name << " starved";
    EXPECT_GE(s.n_max_granted, 1) << s.name;
    EXPECT_LE(s.n_max_granted, s.n_max_asked) << s.name;
    granted += s.n_max_granted;
    denied += s.prewarm_denied;
    EXPECT_GE(s.p95(), 0.0) << s.name;
    EXPECT_GE(s.violation_fraction(), 0.0) << s.name;
    EXPECT_LE(s.violation_fraction(), 1.0) << s.name;
  }
  // Grants fit in what is left after the meter reserve.
  EXPECT_LE(granted,
            opt.node_container_budget - opt.meter_reserve_containers);
  EXPECT_EQ(denied, r.prewarm_denied_total);
  EXPECT_GT(r.total_core_hours(), 0.0);
  EXPECT_GT(r.total_memory_gb_hours(), 0.0);
  EXPECT_EQ(r.fault_counters.total(), 0u);
}

TEST(ClusterInvariants, HoldAcrossRandomSeedsAndSizes) {
  struct Combo {
    int n;
    std::uint64_t seed;
  };
  std::vector<Combo> combos;
  std::uint64_t k = 1;
  for (int rep = 0; rep < 7; ++rep) {
    for (int n : {2, 3, 4}) {
      combos.push_back(Combo{n, 0x9e3779b9u * k++});
    }
  }
  ASSERT_EQ(combos.size(), 21u);

  const auto results =
      parallel_map<ClusterRunResult>(combos.size(), 4, [&](std::size_t i) {
        const Combo& c = combos[i];
        return run_cluster(make_specs(c.n, 0.5), fix().cluster,
                           fix().calibration, small_options(c.seed));
      });
  for (std::size_t i = 0; i < combos.size(); ++i) {
    SCOPED_TRACE("n=" + std::to_string(combos[i].n) +
                 " seed=" + std::to_string(combos[i].seed));
    check_invariants(results[i], combos[i].n, small_options(combos[i].seed));
  }
}

TEST(ClusterInvariants, ArbitrationBindsUnderTightBudget) {
  // A budget far below the sum of solo asks: the arbiter must shrink
  // grants to exactly the service budget while every tenant keeps at
  // least one container.
  ClusterRunOptions opt = small_options(99);
  opt.node_container_budget = 12;
  opt.meter_reserve_containers = 3;
  const int n = 4;
  const auto r =
      run_cluster(make_specs(n, 0.5), fix().cluster, fix().calibration, opt);

  int asked = 0;
  int granted = 0;
  for (const auto& s : r.services) {
    EXPECT_GE(s.n_max_granted, 1) << s.name;
    asked += s.n_max_asked;
    granted += s.n_max_granted;
  }
  const int service_budget =
      opt.node_container_budget - opt.meter_reserve_containers;
  EXPECT_GT(asked, service_budget);      // the budget genuinely binds
  EXPECT_EQ(granted, service_budget);    // and is fully distributed
  EXPECT_LE(r.peak_pool_containers, opt.node_container_budget);
}

TEST(ClusterOscillation, AlignedPeaksDoNotPingPong) {
  // Two identical tenants with ALIGNED diurnal phases: each one's switch
  // changes the pressure the other measures, the classic setup for
  // coupled controllers to chase each other. A healthy day has a handful
  // of switches (out at the trough, back for the rush, plus reaction to
  // the co-tenant); ping-ponging would show dozens.
  const Fixture& f = fix();
  std::vector<ClusterServiceSpec> specs;
  for (int i = 0; i < 2; ++i) {
    specs.push_back(ClusterServiceSpec{
        workload::as_tenant(f.bases[0], i, 0.5), f.artifacts[0], 0.0});
  }
  ClusterRunOptions opt = small_options(42);
  opt.period_s = 480.0;
  const auto r = run_cluster(specs, f.cluster, f.calibration, opt);

  for (const auto& s : r.services) {
    EXPECT_LE(s.switches.size(), 8u) << s.name << " oscillates";
    EXPECT_EQ(s.switch_aborts, 0u) << s.name;    // fault-free run
    EXPECT_EQ(s.switch_retries, 0u) << s.name;
  }
  EXPECT_EQ(r.fault_counters.total(), 0u);
}

// --- result lookup (no simulation needed) ---

ClusterRunResult sample_result() {
  ClusterRunResult r;
  ClusterServiceResult a;
  a.name = "float#0";
  a.n_max_granted = 7;
  ClusterServiceResult b;
  b.name = "dd#1";
  b.n_max_granted = 3;
  r.services = {a, b};
  return r;
}

TEST(ClusterRunResultLookup, FindByName) {
  const ClusterRunResult r = sample_result();
  ASSERT_NE(r.find("dd#1"), nullptr);
  EXPECT_EQ(r.find("dd#1")->n_max_granted, 3);
  EXPECT_EQ(r.find("absent"), nullptr);
}

TEST(ClusterTenants, CyclesSuiteWithScaledPeaks) {
  const auto suite = workload::functionbench_suite();
  const auto tenants = cluster_tenants(7, 0.5);
  ASSERT_EQ(tenants.size(), 7u);
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const auto& base = suite[i % suite.size()];
    EXPECT_EQ(tenants[i].name, base.name + "#" + std::to_string(i));
    EXPECT_DOUBLE_EQ(tenants[i].peak_load_qps, base.peak_load_qps * 0.5);
    EXPECT_DOUBLE_EQ(tenants[i].qos_target_s, base.qos_target_s);
    EXPECT_DOUBLE_EQ(tenants[i].memory_mb, base.memory_mb);
  }
}

}  // namespace
}  // namespace amoeba::exp
