#include "workload/functionbench.hpp"

#include <gtest/gtest.h>

#include <ostream>

namespace amoeba::workload {
namespace {

// Table III of the paper: the sensitivity classes each benchmark must land
// in, given the simulated node's device rates.
struct ExpectedSensitivity {
  const char* name;
  Sensitivity cpu;
  Sensitivity disk;
  Sensitivity net;
};

// Name each case after its benchmark. Without this, GoogleTest prints the
// raw bytes of the struct (a string pointer plus padding), which change
// from build to build and run to run under ASLR, so the test names did too.
void PrintTo(const ExpectedSensitivity& e, std::ostream* os) { *os << e.name; }

class TableIII : public ::testing::TestWithParam<ExpectedSensitivity> {};

TEST_P(TableIII, SensitivityClassesMatchPaper) {
  const auto expected = GetParam();
  const NodeRates rates;
  for (const auto& p : functionbench_suite()) {
    if (p.name != expected.name) continue;
    const auto v = classify_sensitivity(p, rates.disk_bps, rates.net_bps);
    EXPECT_EQ(v.cpu, expected.cpu) << p.name << " cpu";
    EXPECT_EQ(v.disk_io, expected.disk) << p.name << " disk";
    EXPECT_EQ(v.network, expected.net) << p.name << " net";
    return;
  }
  FAIL() << "benchmark not found: " << expected.name;
}

INSTANTIATE_TEST_SUITE_P(
    Benchmarks, TableIII,
    ::testing::Values(
        ExpectedSensitivity{"float", Sensitivity::kHigh, Sensitivity::kNone,
                            Sensitivity::kNone},
        ExpectedSensitivity{"matmul", Sensitivity::kHigh, Sensitivity::kNone,
                            Sensitivity::kNone},
        ExpectedSensitivity{"linpack", Sensitivity::kHigh, Sensitivity::kNone,
                            Sensitivity::kNone},
        ExpectedSensitivity{"dd", Sensitivity::kMedium, Sensitivity::kHigh,
                            Sensitivity::kNone},
        ExpectedSensitivity{"cloud_stor", Sensitivity::kLow,
                            Sensitivity::kMedium, Sensitivity::kHigh}));

TEST(FunctionBench, SuiteHasFiveValidatedBenchmarks) {
  const auto suite = functionbench_suite();
  ASSERT_EQ(suite.size(), 5u);
  for (const auto& p : suite) EXPECT_NO_THROW(p.validate());
}

TEST(FunctionBench, NamesAreUnique) {
  const auto suite = functionbench_suite();
  for (std::size_t i = 0; i < suite.size(); ++i) {
    for (std::size_t j = i + 1; j < suite.size(); ++j) {
      EXPECT_NE(suite[i].name, suite[j].name);
    }
  }
}

TEST(FunctionBench, OverheadFractionInPaperRange) {
  // Fig. 4: processing + code load + result post = 10–45% of a solo query.
  const NodeRates rates;
  for (const auto& p : functionbench_suite()) {
    const double total = p.ideal_serverless_latency(rates.disk_bps,
                                                    rates.net_bps);
    const double overhead = p.platform_overhead_s +
                            p.code_bytes / rates.disk_bps +
                            p.result_bytes / rates.net_bps;
    const double fraction = overhead / total;
    // Paper reports 10–45%; our substitute stack lands slightly wider
    // (linpack ~6%, cloud_stor ~49%) — same shape: a substantial minority
    // share, largest for the shortest function (see EXPERIMENTS.md).
    EXPECT_GE(fraction, 0.05) << p.name;
    EXPECT_LE(fraction, 0.50) << p.name;
  }
}

TEST(FunctionBench, QosTargetsLooserThanSoloLatency) {
  const NodeRates rates;
  for (const auto& p : functionbench_suite()) {
    EXPECT_GT(p.qos_target_s,
              p.ideal_serverless_latency(rates.disk_bps, rates.net_bps))
        << p.name << ": QoS must be achievable solo";
  }
}

TEST(FunctionBench, PeakDemandsFitTheNode) {
  // No benchmark's peak alone may exceed the node's capacity, otherwise
  // even a dedicated platform could not serve it.
  const NodeRates rates;
  for (const auto& p : functionbench_suite()) {
    EXPECT_LT(p.peak_load_qps * p.exec.cpu_seconds, 40.0) << p.name;
    EXPECT_LT(p.peak_load_qps * p.exec.io_bytes, rates.disk_bps) << p.name;
    EXPECT_LT(p.peak_load_qps * p.exec.net_bytes, rates.net_bps) << p.name;
  }
}

TEST(Background, ScalesPeakOnly) {
  const auto base = make_dd();
  const auto bg = as_background(base, 0.3);
  EXPECT_EQ(bg.name, "dd_bg");
  EXPECT_NEAR(bg.peak_load_qps, base.peak_load_qps * 0.3, 1e-12);
  EXPECT_DOUBLE_EQ(bg.exec.io_bytes, base.exec.io_bytes);
}

TEST(Background, RejectsBadFraction) {
  EXPECT_THROW((void)as_background(make_float(), 0.0), ContractError);
  EXPECT_THROW((void)as_background(make_float(), 1.5), ContractError);
}

TEST(Stressor, EachKindStressesItsResource) {
  const auto cpu = make_stressor(StressKind::kCpu);
  EXPECT_GT(cpu.exec.cpu_seconds, 0.0);
  EXPECT_DOUBLE_EQ(cpu.exec.io_bytes, 0.0);

  const auto io = make_stressor(StressKind::kDiskIo);
  EXPECT_GT(io.exec.io_bytes, 0.0);
  EXPECT_DOUBLE_EQ(io.exec.net_bytes, 0.0);

  const auto net = make_stressor(StressKind::kNetwork);
  EXPECT_GT(net.exec.net_bytes, 0.0);
  EXPECT_DOUBLE_EQ(net.exec.io_bytes, 0.0);
}

TEST(Stressor, DeterministicBodies) {
  // Profiling wants clean pressure steps: no service-time jitter.
  for (auto kind :
       {StressKind::kCpu, StressKind::kDiskIo, StressKind::kNetwork}) {
    EXPECT_DOUBLE_EQ(make_stressor(kind).cpu_cv, 0.0);
  }
}

}  // namespace
}  // namespace amoeba::workload
