#include "serverless/platform.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "sim/fault_injector.hpp"

namespace amoeba::serverless {
namespace {

using workload::QueryRecord;

PlatformConfig small_config() {
  PlatformConfig cfg;
  cfg.cores = 8.0;
  cfg.pool_memory_mb = 2048.0;  // 8 containers at 256 MB
  cfg.disk_bps = 1.0e9;
  cfg.net_bps = 1.0e9;
  cfg.cold_start_mean_s = 1.0;
  cfg.cold_start_cv = 0.0;  // deterministic boots for exact assertions
  cfg.keep_alive_s = 30.0;
  return cfg;
}

workload::FunctionProfile cpu_fn(double cpu_s = 0.1) {
  workload::FunctionProfile p;
  p.name = "fn";
  p.exec = {.cpu_seconds = cpu_s, .io_bytes = 0.0, .net_bytes = 0.0};
  p.code_bytes = 1e6;           // 1 ms at 1 GB/s
  p.result_bytes = 1e6;         // 1 ms at 1 GB/s
  p.platform_overhead_s = 0.01;
  p.rpc_overhead_s = 0.002;
  p.memory_mb = 256.0;
  p.cpu_cv = 0.0;               // deterministic for exact assertions
  p.qos_target_s = 0.5;
  p.peak_load_qps = 20.0;
  return p;
}

TEST(Platform, FirstQueryPaysColdStart) {
  sim::Engine e;
  ServerlessPlatform sp(e, small_config(), sim::Rng(1));
  const FunctionId fn = sp.register_function(cpu_fn());
  QueryRecord record;
  sp.submit(fn, [&](const QueryRecord& r) { record = r; });
  e.run();
  EXPECT_TRUE(record.cold);
  EXPECT_NEAR(record.breakdown.cold_start_s, 1.0, 1e-9);
  // overhead 0.01 + code 0.001 + cpu 0.1 + post 0.001 after the boot.
  EXPECT_NEAR(record.latency(), 1.0 + 0.112, 1e-9);
}

TEST(Platform, WarmQueryHasNoColdStart) {
  sim::Engine e;
  ServerlessPlatform sp(e, small_config(), sim::Rng(2));
  const FunctionId fn = sp.register_function(cpu_fn());
  sp.submit(fn, [](const QueryRecord&) {});
  e.run_until(5.0);  // first query done; container still within keep-alive
  QueryRecord record;
  sp.submit(fn, [&](const QueryRecord& r) { record = r; });
  e.run_until(10.0);
  EXPECT_FALSE(record.cold);
  EXPECT_DOUBLE_EQ(record.breakdown.cold_start_s, 0.0);
  EXPECT_NEAR(record.latency(), 0.112, 1e-9);
}

TEST(Platform, BreakdownComponentsMatchPhases) {
  sim::Engine e;
  ServerlessPlatform sp(e, small_config(), sim::Rng(3));
  auto p = cpu_fn();
  p.exec.io_bytes = 2e6;   // 2 ms
  p.exec.net_bytes = 3e6;  // 3 ms
  const FunctionId fn = sp.register_function(p);
  sp.submit(fn, [](const QueryRecord&) {});
  e.run_until(5.0);
  QueryRecord record;
  sp.submit(fn, [&](const QueryRecord& r) { record = r; });
  e.run_until(10.0);
  EXPECT_NEAR(record.breakdown.overhead_s, 0.01, 1e-12);
  EXPECT_NEAR(record.breakdown.code_load_s, 0.001, 1e-9);
  EXPECT_NEAR(record.breakdown.exec_s, 0.1 + 0.002 + 0.003, 1e-9);
  EXPECT_NEAR(record.breakdown.post_s, 0.001, 1e-9);
  EXPECT_NEAR(record.breakdown.total(), record.latency(), 1e-9);
}

TEST(Platform, PrewarmEliminatesColdStart) {
  sim::Engine e;
  ServerlessPlatform sp(e, small_config(), sim::Rng(4));
  const FunctionId fn = sp.register_function(cpu_fn());
  EXPECT_EQ(sp.prewarm(fn, 2), 2);
  e.run_until(2.0);
  EXPECT_EQ(sp.counts(fn).idle, 2);
  QueryRecord record;
  sp.submit(fn, [&](const QueryRecord& r) { record = r; });
  e.run_until(5.0);
  EXPECT_FALSE(record.cold);
  EXPECT_DOUBLE_EQ(record.breakdown.cold_start_s, 0.0);
  EXPECT_DOUBLE_EQ(record.breakdown.queue_s, 0.0);
}

TEST(Platform, PrewarmIsIdempotentOnTotalCount) {
  sim::Engine e;
  ServerlessPlatform sp(e, small_config(), sim::Rng(5));
  const FunctionId fn = sp.register_function(cpu_fn());
  EXPECT_EQ(sp.prewarm(fn, 3), 3);
  EXPECT_EQ(sp.prewarm(fn, 3), 0);  // already starting
  e.run_until(2.0);
  EXPECT_EQ(sp.prewarm(fn, 5), 2);
}

TEST(Platform, PrewarmBoundedByMemory) {
  sim::Engine e;
  ServerlessPlatform sp(e, small_config(), sim::Rng(6));
  const FunctionId fn = sp.register_function(cpu_fn());
  EXPECT_EQ(sp.prewarm(fn, 100), 8);  // pool fits 8 containers
}

TEST(Platform, QueriesQueueWhenAllContainersBusy) {
  sim::Engine e;
  auto cfg = small_config();
  cfg.pool_memory_mb = 256.0;  // exactly one container
  ServerlessPlatform sp(e, cfg, sim::Rng(7));
  const FunctionId fn = sp.register_function(cpu_fn(0.1));
  std::vector<QueryRecord> records;
  for (int i = 0; i < 3; ++i) {
    sp.submit(fn, [&](const QueryRecord& r) { records.push_back(r); });
  }
  e.run();
  ASSERT_EQ(records.size(), 3u);
  // FIFO completion; later queries waited longer.
  EXPECT_LT(records[0].breakdown.queue_s + records[0].breakdown.cold_start_s,
            records[1].breakdown.queue_s + records[1].breakdown.cold_start_s);
  EXPECT_LT(records[1].breakdown.queue_s, records[2].breakdown.queue_s);
}

TEST(Platform, MaxContainersCapRespected) {
  sim::Engine e;
  ServerlessPlatform sp(e, small_config(), sim::Rng(8));
  const FunctionId fn = sp.register_function(cpu_fn(), /*max_containers=*/2);
  for (int i = 0; i < 10; ++i) {
    sp.submit(fn, [](const QueryRecord&) {});
  }
  e.run_until(0.5);  // during cold starts
  EXPECT_LE(sp.counts(fn).total(), 2);
  e.run();
  EXPECT_EQ(sp.stats(fn).completed, 10u);
}

TEST(Platform, EvictsForeignIdleContainerUnderMemoryPressure) {
  sim::Engine e;
  auto cfg = small_config();
  cfg.pool_memory_mb = 512.0;  // two containers
  ServerlessPlatform sp(e, cfg, sim::Rng(9));
  auto a = cpu_fn();
  a.name = "a";
  auto b = cpu_fn();
  b.name = "b";
  const FunctionId fn_a = sp.register_function(a);
  const FunctionId fn_b = sp.register_function(b);
  sp.prewarm(fn_a, 2);
  e.run_until(2.0);
  EXPECT_EQ(sp.counts(fn_a).idle, 2);
  // b needs a container: one of a's idle containers must be evicted.
  QueryRecord record;
  sp.submit(fn_b, [&](const QueryRecord& r) { record = r; });
  e.run_until(5.0);
  EXPECT_TRUE(record.cold);
  EXPECT_EQ(sp.counts(fn_a).idle, 1);
  EXPECT_EQ(sp.stats(fn_b).completed, 1u);
}

TEST(Platform, WarmReuseKeepsOneContainerForSequentialLoad) {
  sim::Engine e;
  ServerlessPlatform sp(e, small_config(), sim::Rng(10));
  const FunctionId fn = sp.register_function(cpu_fn());
  int completed = 0;
  // Sequential queries spaced wider than the cold start + service time, so
  // after the first boot every arrival finds the warm container idle.
  // (Closer spacing WOULD cold-start extra containers: arrivals during a
  // boot bind to fresh containers, OpenWhisk-style.)
  for (int i = 0; i < 10; ++i) {
    e.schedule(2.0 + 1.5 * i, [&] {
      sp.submit(fn, [&](const QueryRecord&) { ++completed; });
    });
  }
  e.run();
  EXPECT_EQ(completed, 10);
  EXPECT_EQ(sp.stats(fn).cold_hits, 1u);  // only the very first
}

TEST(Platform, ArrivalDuringBootBindsToItsOwnColdContainer) {
  // OpenWhisk semantics: an arrival with no warm container cold-starts its
  // OWN container and waits out that boot, even if another container will
  // free up sooner. Two near-simultaneous queries => two cold starts.
  sim::Engine e;
  ServerlessPlatform sp(e, small_config(), sim::Rng(21));
  const FunctionId fn = sp.register_function(cpu_fn());
  std::vector<QueryRecord> records;
  sp.submit(fn, [&](const QueryRecord& r) { records.push_back(r); });
  e.schedule(0.2, [&] {
    sp.submit(fn, [&](const QueryRecord& r) { records.push_back(r); });
  });
  e.run_until(5.0);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_TRUE(records[0].cold);
  EXPECT_TRUE(records[1].cold);
  EXPECT_EQ(sp.stats(fn).cold_hits, 2u);
  // The second query paid its own full boot (arrived at 0.2, boot 1 s).
  EXPECT_NEAR(records[1].breakdown.cold_start_s, 1.0, 1e-9);
}

TEST(Platform, QueueedQueryTakesWhicheverContainerFreesFirst) {
  // With the pool at its memory cap, an UNBOUND queued query is served by
  // the first container that frees (it caused no cold start).
  sim::Engine e;
  auto cfg = small_config();
  cfg.pool_memory_mb = 256.0;  // one container
  ServerlessPlatform sp(e, cfg, sim::Rng(22));
  const FunctionId fn = sp.register_function(cpu_fn());
  std::vector<QueryRecord> records;
  for (int i = 0; i < 2; ++i) {
    sp.submit(fn, [&](const QueryRecord& r) { records.push_back(r); });
  }
  e.run_until(5.0);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_TRUE(records[0].cold);
  EXPECT_FALSE(records[1].cold);        // reused the single warm container
  EXPECT_GT(records[1].breakdown.queue_s, 1.0);  // waited behind q1
}

TEST(Platform, RetireDestroysIdleAndReclaimsAfterCompletion) {
  sim::Engine e;
  ServerlessPlatform sp(e, small_config(), sim::Rng(11));
  const FunctionId fn = sp.register_function(cpu_fn());
  sp.prewarm(fn, 3);
  e.run_until(2.0);
  sp.submit(fn, [](const QueryRecord&) {});
  e.run_until(2.05);  // one busy, two idle
  EXPECT_EQ(sp.counts(fn).busy, 1);
  sp.retire(fn);
  EXPECT_EQ(sp.counts(fn).idle, 0);  // idle destroyed immediately
  EXPECT_EQ(sp.counts(fn).busy, 1);  // busy one finishes first
  e.run();
  EXPECT_EQ(sp.counts(fn).total(), 0);
  EXPECT_EQ(sp.stats(fn).completed, 1u);
}

TEST(Platform, UnretireRestoresWarmBehaviour) {
  sim::Engine e;
  ServerlessPlatform sp(e, small_config(), sim::Rng(12));
  const FunctionId fn = sp.register_function(cpu_fn());
  sp.retire(fn);
  sp.unretire(fn);
  sp.submit(fn, [](const QueryRecord&) {});
  e.run_until(5.0);
  EXPECT_EQ(sp.counts(fn).idle, 1);  // kept warm again
}

TEST(Platform, CrashInjectionForcesRepeatColdStarts) {
  sim::Engine e;
  auto cfg = small_config();
  cfg.crash_after_completion_p = 1.0;
  ServerlessPlatform sp(e, cfg, sim::Rng(13));
  const FunctionId fn = sp.register_function(cpu_fn());
  for (int i = 0; i < 5; ++i) {
    e.schedule(3.0 * i, [&] { sp.submit(fn, [](const QueryRecord&) {}); });
  }
  e.run();
  EXPECT_EQ(sp.stats(fn).cold_hits, 5u);  // every query pays a cold start
}

TEST(Platform, CpuStatsAccumulateWork) {
  sim::Engine e;
  ServerlessPlatform sp(e, small_config(), sim::Rng(14));
  const FunctionId fn = sp.register_function(cpu_fn(0.1));
  for (int i = 0; i < 4; ++i) {
    sp.submit(fn, [](const QueryRecord&) {});
  }
  e.run();
  EXPECT_NEAR(sp.cpu_core_seconds(fn), 0.4, 1e-9);
}

TEST(Platform, UnknownFunctionThrows) {
  sim::Engine e;
  ServerlessPlatform sp(e, small_config(), sim::Rng(15));
  // An unregistered name has no handle, and an id the platform never
  // handed out trips the bounds precondition.
  EXPECT_EQ(sp.find_function("ghost"), std::nullopt);
  const FunctionId ghost{0};
  EXPECT_THROW(sp.submit(ghost, [](const QueryRecord&) {}), ContractError);
  EXPECT_THROW((void)sp.prewarm(ghost, 1), ContractError);
  EXPECT_THROW((void)sp.stats(ghost), ContractError);
  EXPECT_THROW((void)sp.counts(ghost), ContractError);
  const FunctionId fn = sp.register_function(cpu_fn());
  EXPECT_EQ(sp.find_function("fn"), fn);
  EXPECT_THROW((void)sp.stats(FunctionId{1}), ContractError);
}

TEST(Platform, DuplicateRegistrationThrows) {
  sim::Engine e;
  ServerlessPlatform sp(e, small_config(), sim::Rng(16));
  (void)sp.register_function(cpu_fn());
  EXPECT_THROW(sp.register_function(cpu_fn()), ContractError);
}

TEST(Platform, ConfigValidation) {
  sim::Engine e;
  auto cfg = small_config();
  cfg.cores = 0.0;
  EXPECT_THROW(ServerlessPlatform(e, cfg, sim::Rng(17)), ContractError);
  cfg = small_config();
  cfg.crash_after_completion_p = 1.5;
  EXPECT_THROW(ServerlessPlatform(e, cfg, sim::Rng(18)), ContractError);
}

TEST(Platform, BootFailureRescuesBoundQuery) {
  sim::Engine e;
  ServerlessPlatform sp(e, small_config(), sim::Rng(19));
  const FunctionId fn = sp.register_function(cpu_fn());
  sim::FaultConfig fc;
  fc.container_boot_fail_first_n = 1;  // first cold start fails, retry works
  sim::FaultInjector faults(fc, sim::Rng(3));
  sp.set_fault_injector(&faults);

  QueryRecord record;
  int done = 0;
  sp.submit(fn, [&](const QueryRecord& r) {
    record = r;
    ++done;
  });
  e.run_until(10.0);
  // The query bound to the failed container was re-queued, pumped into a
  // fresh cold container, and still completed — with two boot windows paid.
  EXPECT_EQ(done, 1);
  EXPECT_TRUE(record.cold);
  EXPECT_EQ(sp.stats(fn).boot_failures, 1u);
  EXPECT_EQ(sp.stats(fn).completed, 1u);
  EXPECT_GT(record.latency(), 2.0);  // two 1 s boots plus execution
}

TEST(Platform, ReleasePrewarmedDestroysIdleAndUnboundStarting) {
  sim::Engine e;
  ServerlessPlatform sp(e, small_config(), sim::Rng(20));
  const FunctionId fn = sp.register_function(cpu_fn());
  sp.prewarm(fn, 3);
  e.run_until(2.0);  // all three idle
  sp.prewarm(fn, 5);  // two more, still starting
  EXPECT_EQ(sp.counts(fn).idle, 3);
  EXPECT_EQ(sp.counts(fn).starting, 2);
  const int released = sp.release_prewarmed(fn);
  EXPECT_EQ(released, 5);
  EXPECT_EQ(sp.counts(fn).total(), 0);
  EXPECT_DOUBLE_EQ(sp.pool().memory_in_use_mb(), 0.0);
  e.run();  // pending boot events must be inert
  EXPECT_EQ(sp.counts(fn).total(), 0);
}

TEST(Platform, ReleasePrewarmedSparesContainersBoundToQueries) {
  sim::Engine e;
  ServerlessPlatform sp(e, small_config(), sim::Rng(21));
  const FunctionId fn = sp.register_function(cpu_fn());
  int done = 0;
  // This query arrives on a cold pool: it binds to the container that cold
  // starts for it (OpenWhisk semantics).
  sp.submit(fn, [&](const QueryRecord&) { ++done; });
  e.run_until(0.5);  // mid-boot
  EXPECT_EQ(sp.counts(fn).starting, 1);
  const int released = sp.release_prewarmed(fn);
  EXPECT_EQ(released, 0);  // bound container spared
  e.run_until(10.0);
  EXPECT_EQ(done, 1);  // the query still completes
}

}  // namespace
}  // namespace amoeba::serverless
