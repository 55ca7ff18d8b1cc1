// Work-conservation oracles: over a seeded diurnal day, the CPU work a node
// reports as served (the fair-share busy integral) must equal the CPU work
// of the queries that completed on it. Processor sharing may reorder and
// stretch work but never create or lose it; the interference penalty slows
// every stream, so it stretches work in time without changing its amount.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "iaas/vm.hpp"
#include "serverless/platform.hpp"
#include "workload/diurnal_trace.hpp"
#include "workload/functionbench.hpp"
#include "workload/load_generator.hpp"

namespace amoeba {
namespace {

constexpr double kDay = 1200.0;  // simulated seconds per compressed day

workload::DiurnalTrace day_trace(double peak_qps, double phase,
                                 std::uint64_t seed) {
  workload::DiurnalTraceConfig cfg;
  cfg.period_s = kDay;
  cfg.peak_qps = peak_qps;
  cfg.noise_cv = 0.2;
  cfg.phase = phase;
  return workload::DiurnalTrace(cfg, seed);
}

TEST(WorkConservation, VmBusyCoreSecondsEqualCompletedCpuWork) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    sim::Engine e;
    // Peaks above the VM's 4 cores, so queries pile up and share them.
    workload::FunctionProfile profile = workload::make_float();
    iaas::VirtualMachine vm(e, profile, iaas::VmSpec{}, sim::Rng(seed), 2e9,
                            3.125e9);
    vm.boot([] {});
    e.run();
    const auto trace = day_trace(60.0, 0.0, seed);
    double cpu_work = 0.0;
    std::uint64_t completed = 0;
    workload::PoissonLoadGenerator gen(e, sim::Rng(100 + seed), trace, [&] {
      vm.submit([&](const workload::QueryRecord& r) {
        cpu_work += r.cpu_work_done;
        ++completed;
      });
    });
    gen.start();
    e.run_until(e.now() + kDay);
    gen.stop();
    e.run();  // drain every in-flight query
    ASSERT_EQ(completed, gen.emitted()) << "seed " << seed;
    ASSERT_GT(completed, 10000u) << "seed " << seed;
    const double busy = vm.busy_core_seconds(e.now());
    EXPECT_NEAR(busy, cpu_work, 1e-9 * cpu_work)
        << "seed " << seed << " busy " << busy << " work " << cpu_work;
  }
}

TEST(WorkConservation, ServerlessCpuBusyIntegralEqualsFunctionCpuSeconds) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    sim::Engine e;
    serverless::PlatformConfig cfg;
    cfg.cpu_interference = 0.3;  // rates stretch, work must not
    serverless::ServerlessPlatform sp(e, cfg, sim::Rng(seed));
    const std::vector<workload::FunctionProfile> fns = {
        workload::make_float(), workload::make_matmul(), workload::make_dd(),
        workload::make_cloud_stor()};
    std::vector<std::unique_ptr<workload::DiurnalTrace>> traces;
    std::vector<std::unique_ptr<workload::PoissonLoadGenerator>> gens;
    std::vector<serverless::FunctionId> ids;
    for (std::size_t i = 0; i < fns.size(); ++i) {
      ids.push_back(sp.register_function(fns[i]));
      traces.push_back(std::make_unique<workload::DiurnalTrace>(
          day_trace(0.5 * fns[i].peak_load_qps, 0.2 * static_cast<double>(i),
                    seed * 10 + i)));
      gens.push_back(std::make_unique<workload::PoissonLoadGenerator>(
          e, sim::Rng(100 * seed + i), *traces.back(),
          [&sp, fn = ids.back()] {
            sp.submit(fn, [](const workload::QueryRecord&) {});
          }));
      gens.back()->start();
    }
    e.run_until(kDay);
    for (auto& g : gens) g->stop();
    e.run();  // drain every in-flight invocation
    double cpu_seconds = 0.0;
    for (const serverless::FunctionId fn : ids) {
      EXPECT_EQ(sp.stats(fn).completed, sp.stats(fn).submitted)
          << "function " << static_cast<std::uint32_t>(fn);
      cpu_seconds += sp.cpu_core_seconds(fn);
    }
    ASSERT_GT(cpu_seconds, 1000.0) << "seed " << seed;
    const double busy = sp.true_cpu_busy_integral(e.now()) * cfg.cores;
    EXPECT_NEAR(busy, cpu_seconds, 1e-9 * cpu_seconds)
        << "seed " << seed << " busy " << busy << " work " << cpu_seconds;
  }
}

}  // namespace
}  // namespace amoeba
