#include "core/resource_accounting.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <optional>

#include "iaas/platform.hpp"

namespace amoeba::core {
namespace {

serverless::PlatformConfig sp_config() {
  serverless::PlatformConfig cfg;
  cfg.cores = 8.0;
  cfg.pool_memory_mb = 4096.0;
  cfg.disk_bps = 1.0e9;
  cfg.net_bps = 1.0e9;
  cfg.cold_start_mean_s = 0.0;  // instant boots: exact integrals
  cfg.keep_alive_s = 5.0;
  return cfg;
}

workload::FunctionProfile service() {
  workload::FunctionProfile p;
  p.name = "svc";
  p.exec = {.cpu_seconds = 0.1, .io_bytes = 0.0, .net_bytes = 0.0};
  p.rpc_overhead_s = 0.0;
  p.platform_overhead_s = 0.0;
  p.memory_mb = 256.0;
  p.cpu_cv = 0.0;
  p.qos_target_s = 1.0;
  p.peak_load_qps = 10.0;
  return p;
}

TEST(ResourceAccounting, IaasUsageIsRentedAllocation) {
  sim::Engine e;
  serverless::ServerlessPlatform sp(e, sp_config(), sim::Rng(1));
  iaas::IaasPlatform ip(e, iaas::IaasConfig{}, sim::Rng(2));
  iaas::VmSpec spec;
  spec.cores = 4.0;
  spec.memory_mb = 2048.0;
  spec.boot_s = 0.0;
  iaas::VirtualMachine& vm = ip.register_service(service(), spec);
  vm.boot([] {});
  e.run();
  e.schedule(10.0, [] {});
  e.run();

  const auto u = service_usage(&vm, sp, std::nullopt, 10.0);
  EXPECT_NEAR(u.cpu_core_seconds, 40.0, 1e-9);
  EXPECT_NEAR(u.memory_mb_seconds, 20480.0, 1e-9);
}

TEST(ResourceAccounting, ServerlessUsageIsConsumptionPlusContainerMemory) {
  sim::Engine e;
  serverless::ServerlessPlatform sp(e, sp_config(), sim::Rng(3));
  const serverless::FunctionId fn = sp.register_function(service());
  for (int i = 0; i < 5; ++i) {
    sp.submit(fn, [](const workload::QueryRecord&) {});
  }
  e.run();  // queries done; container expires after keep-alive

  const double now = e.now();
  const auto u = service_usage(nullptr, sp, fn, now);
  EXPECT_NEAR(u.cpu_core_seconds, 0.5, 1e-9);  // 5 × 0.1 actual compute
  EXPECT_GT(u.memory_mb_seconds, 0.0);
  // 5 simultaneous queries spawn 5 containers (one per queued query); each
  // lives its ~0.1 s of work plus the 5 s keep-alive at 256 MB.
  EXPECT_NEAR(u.memory_mb_seconds, 5.0 * 256.0 * 5.1, 5.0 * 256.0 * 0.5);
}

TEST(ResourceAccounting, CombinedUsageSumsPlatforms) {
  sim::Engine e;
  serverless::ServerlessPlatform sp(e, sp_config(), sim::Rng(5));
  iaas::IaasPlatform ip(e, iaas::IaasConfig{}, sim::Rng(6));
  iaas::VmSpec spec;
  spec.cores = 1.0;
  spec.memory_mb = 512.0;
  spec.boot_s = 0.0;
  iaas::VirtualMachine& vm = ip.register_service(service(), spec);
  const serverless::FunctionId fn = sp.register_function(service());
  vm.boot([] {});
  e.run();
  e.schedule(4.0, [] {});
  e.run();

  const auto combined = service_usage(&vm, sp, fn, 4.0);
  EXPECT_DOUBLE_EQ(combined.cpu_core_seconds,
                   vm.rented_core_seconds(4.0) + sp.cpu_core_seconds(fn));
  EXPECT_DOUBLE_EQ(combined.memory_mb_seconds,
                   vm.rented_memory_mb_seconds(4.0) +
                       sp.memory_mb_seconds(fn, 4.0));
}

TEST(SplitContainerBudget, ReturnsAsksWhenTheyFit) {
  EXPECT_EQ(split_container_budget({3, 5, 2}, 10), (std::vector<int>{3, 5, 2}));
  EXPECT_EQ(split_container_budget({3, 5, 2}, 100),
            (std::vector<int>{3, 5, 2}));
  EXPECT_TRUE(split_container_budget({}, 10).empty());
}

TEST(SplitContainerBudget, OversubscribedSplitIsProportionalAndExact) {
  // Asks 10+30+60 = 100 into 50: grants must sum to exactly 50, keep the
  // min-1 guarantee, never exceed an ask, and track proportions.
  const auto g = split_container_budget({10, 30, 60}, 50);
  ASSERT_EQ(g.size(), 3u);
  EXPECT_EQ(g[0] + g[1] + g[2], 50);
  EXPECT_GE(g[0], 1);
  EXPECT_LE(g[0], 10);
  EXPECT_LT(g[0], g[1]);
  EXPECT_LT(g[1], g[2]);
}

TEST(SplitContainerBudget, MinOneGuaranteeUnderStarvationBudget) {
  // Budget == number of services: everyone gets exactly their floor.
  EXPECT_EQ(split_container_budget({40, 40, 40, 40}, 4),
            (std::vector<int>{1, 1, 1, 1}));
}

TEST(SplitContainerBudget, SingleServiceGetsMinOfAskAndBudget) {
  EXPECT_EQ(split_container_budget({10}, 4), (std::vector<int>{4}));
  EXPECT_EQ(split_container_budget({3}, 10), (std::vector<int>{3}));
  // Budget 1 still honors the min-1 floor for the lone service.
  EXPECT_EQ(split_container_budget({10}, 1), (std::vector<int>{1}));
}

TEST(SplitContainerBudget, AskOfOneTenantKeepsExactlyItsFloor) {
  // A tenant asking the bare minimum has zero excess: arbitration must
  // neither inflate it nor starve it, and the whole spare goes elsewhere.
  const auto g = split_container_budget({1, 99}, 10);
  EXPECT_EQ(g, (std::vector<int>{1, 9}));
  const auto h = split_container_budget({1, 1, 50, 50}, 12);
  EXPECT_EQ(h[0], 1);
  EXPECT_EQ(h[1], 1);
  EXPECT_EQ(h[2] + h[3], 10);
}

TEST(SplitContainerBudget, RejectsInfeasibleInputs) {
  // Budget below the per-service floor cannot satisfy the no-starvation
  // guarantee; zero asks are malformed (n_max is always >= 1).
  EXPECT_THROW((void)split_container_budget({2, 2, 2}, 2), ContractError);
  EXPECT_THROW((void)split_container_budget({5, 0, 5}, 20), ContractError);
}

TEST(SplitContainerBudget, OversubscribedGrantsAlwaysSumToTheBudget) {
  const std::vector<std::vector<int>> cases = {
      {7, 13, 2, 41, 9}, {128, 1, 128}, {6, 6, 6, 6, 6, 6, 6}};
  for (const auto& asks : cases) {
    const int n = static_cast<int>(asks.size());
    const int total = std::accumulate(asks.begin(), asks.end(), 0);
    for (int budget = n; budget < total; budget += 3) {
      const auto g = split_container_budget(asks, budget);
      EXPECT_EQ(std::accumulate(g.begin(), g.end(), 0), budget);
      for (std::size_t i = 0; i < g.size(); ++i) {
        EXPECT_GE(g[i], 1);
        EXPECT_LE(g[i], asks[i]);
      }
    }
  }
}

TEST(SplitContainerBudget, LargestRemainderTiesBreakByLowerIndex) {
  // Equal asks, budget not divisible: the spare container goes to the
  // earlier service, deterministically.
  const auto g = split_container_budget({5, 5, 5}, 7);
  EXPECT_EQ(g, (std::vector<int>{3, 2, 2}));
}

TEST(ResourceAccounting, UnregisteredServiceIsZero) {
  sim::Engine e;
  serverless::ServerlessPlatform sp(e, sp_config(), sim::Rng(7));
  // No VM and no function: neither platform adds anything.
  const auto u = service_usage(nullptr, sp, std::nullopt, 1.0);
  EXPECT_DOUBLE_EQ(u.cpu_core_seconds, 0.0);
  EXPECT_DOUBLE_EQ(u.memory_mb_seconds, 0.0);
}

}  // namespace
}  // namespace amoeba::core
