#include "exp/scenario.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/queueing.hpp"

namespace amoeba::exp {
namespace {

TEST(Cluster, DefaultsMatchTableII) {
  const auto c = default_cluster();
  EXPECT_DOUBLE_EQ(c.serverless.cores, 40.0);
  EXPECT_DOUBLE_EQ(c.serverless.net_bps, 3.125e9);  // 25 Gb/s
  EXPECT_DOUBLE_EQ(c.serverless.pool_memory_mb, 32768.0);
  EXPECT_DOUBLE_EQ(c.iaas.vm_boot_s, 30.0);
  EXPECT_NO_THROW(c.serverless.validate());
  EXPECT_NO_THROW(c.iaas.validate());
}

TEST(JustEnoughVm, MeetsQosByConstruction) {
  const auto cluster = default_cluster();
  for (const auto& p : workload::functionbench_suite()) {
    const auto spec = just_enough_vm(p, cluster);
    const double mu =
        1.0 / p.ideal_iaas_latency(cluster.iaas.disk_bps, cluster.iaas.net_bps);
    EXPECT_TRUE(core::queueing::qos_satisfied(
        p.peak_load_qps, static_cast<int>(spec.cores), mu, p.qos_target_s,
        0.95))
        << p.name;
    EXPECT_GT(spec.memory_mb, p.memory_mb);
  }
}

TEST(JustEnoughVm, IsActuallyJustEnough) {
  // The sizing is the tightest QoS-meeting server count times the fixed
  // 1.15 headroom, rounded up: one core fewer would fall short of that
  // headroom. The tight count comes from a scan from one server, not from
  // queueing::min_servers.
  const auto cluster = default_cluster();
  for (const auto& p : workload::functionbench_suite()) {
    const auto spec = just_enough_vm(p, cluster);
    const double mu =
        1.0 / p.ideal_iaas_latency(cluster.iaas.disk_bps, cluster.iaas.net_bps);
    int tight = 1;
    while (!core::queueing::qos_satisfied(p.peak_load_qps, tight, mu,
                                          p.qos_target_s, 0.95)) {
      ++tight;
    }
    EXPECT_EQ(static_cast<int>(spec.cores),
              static_cast<int>(std::ceil(tight * 1.15)))
        << p.name;
  }
}

TEST(DiurnalFor, UsesProfilePeak) {
  const auto p = workload::make_float();
  const auto cfg = diurnal_for(p, 600.0);
  EXPECT_DOUBLE_EQ(cfg.peak_qps, p.peak_load_qps);
  EXPECT_DOUBLE_EQ(cfg.period_s, 600.0);
  EXPECT_LE(cfg.trough_fraction, 0.30);
  EXPECT_NO_THROW(cfg.validate());
}

TEST(BackgroundSuite, ThreePaperTenantsScaled) {
  const auto bg = background_suite(0.3);
  ASSERT_EQ(bg.size(), 3u);
  EXPECT_EQ(bg[0].name, "float_bg");
  EXPECT_EQ(bg[1].name, "dd_bg");
  EXPECT_EQ(bg[2].name, "cloud_stor_bg");
  EXPECT_NEAR(bg[0].peak_load_qps, workload::make_float().peak_load_qps * 0.3,
              1e-9);
}

TEST(DeploySystem, Names) {
  EXPECT_STREQ(to_string(DeploySystem::kAmoeba), "Amoeba");
  EXPECT_STREQ(to_string(DeploySystem::kAmoebaNoM), "Amoeba-NoM");
  EXPECT_STREQ(to_string(DeploySystem::kAmoebaNoP), "Amoeba-NoP");
  EXPECT_STREQ(to_string(DeploySystem::kNameko), "Nameko");
  EXPECT_STREQ(to_string(DeploySystem::kOpenWhisk), "OpenWhisk");
}

}  // namespace
}  // namespace amoeba::exp
