// Contract-library tests: violation formatting, handler plumbing, and
// death-tests demonstrating the production abort path for the invariants
// catalogued in DESIGN.md §"Invariants & verification".
#include <gtest/gtest.h>

#include "common/assert.hpp"
#include "core/hybrid_engine.hpp"
#include "core/prewarm_policy.hpp"
#include "core/queueing.hpp"
#include "sim/engine.hpp"
#include "sim/fault_injector.hpp"

namespace amoeba {
namespace {

TEST(ContractViolation, DescribeIncludesAllParts) {
  const ContractViolation v{"precondition", "x > 0", "file.cpp", 42,
                            "x must be positive", "x = -1"};
  const std::string text = v.describe();
  EXPECT_NE(text.find("precondition violated"), std::string::npos);
  EXPECT_NE(text.find("`x > 0`"), std::string::npos);
  EXPECT_NE(text.find("file.cpp:42"), std::string::npos);
  EXPECT_NE(text.find("x must be positive"), std::string::npos);
  EXPECT_NE(text.find("[x = -1]"), std::string::npos);
}

TEST(ContractViolation, CaptureRendersNamesAndValues) {
  const double rho = 1.25;
  const int n = 4;
  EXPECT_EQ(AMOEBA_CAPTURE(rho, n), "rho, n = 1.25, 4");
}

TEST(ContractHandler, SetReturnsPreviousAndNullRestoresDefault) {
  // The test harness installs the throwing handler before main().
  ContractHandler prev = set_contract_handler(&abort_contract_handler);
  EXPECT_EQ(prev, &throwing_contract_handler);
  EXPECT_EQ(contract_handler(), &abort_contract_handler);
  set_contract_handler(nullptr);
  EXPECT_EQ(contract_handler(), &abort_contract_handler);
  set_contract_handler(&throwing_contract_handler);
}

TEST(ContractHandler, ThrowingHandlerCarriesKindInMessage) {
  try {
    AMOEBA_EXPECTS_MSG(false, "deliberate");
    FAIL() << "contract did not fire";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("precondition violated"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("deliberate"), std::string::npos);
  }
}

TEST(ContractHandler, EnsuresAndInvariantReportTheirKind) {
  EXPECT_THROW(AMOEBA_ENSURES(1 == 2), ContractError);
  EXPECT_THROW(AMOEBA_INVARIANT(1 == 2), ContractError);
  try {
    AMOEBA_ENSURES_VALS(false, 7);
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("postcondition violated"),
              std::string::npos);
  }
}

TEST(ContractHandler, CaptureIsLazilyEvaluated) {
  int evaluations = 0;
  auto count = [&evaluations] { return ++evaluations; };
  AMOEBA_EXPECTS_VALS(true, count());
  EXPECT_EQ(evaluations, 0);  // passing contract never builds the capture
  EXPECT_THROW(AMOEBA_EXPECTS_VALS(false, count()), ContractError);
  EXPECT_EQ(evaluations, 1);
}

// --- Death-tests: the production (abort) handler --------------------------
//
// The death-test child inherits the suite's throwing handler, so each dying
// statement first reinstalls the production handler. The matched output is
// what abort_contract_handler prints to stderr before abort().

using ContractDeathTest = testing::Test;

TEST(ContractDeathTest, DefaultHandlerPrintsAndAborts) {
  EXPECT_DEATH(
      {
        set_contract_handler(&abort_contract_handler);
        AMOEBA_EXPECTS_MSG(false, "boom");
      },
      "precondition violated.*boom");
}

TEST(ContractDeathTest, QueueingRejectsUnstableSystem) {
  EXPECT_DEATH(
      {
        set_contract_handler(&abort_contract_handler);
        (void)core::queueing::wait_quantile(20.0, 10, 1.0, 0.95);  // rho = 2
      },
      "system must be stable");
}

TEST(ContractDeathTest, EngineRejectsSchedulingInThePast) {
  EXPECT_DEATH(
      {
        set_contract_handler(&abort_contract_handler);
        sim::Engine engine;
        engine.schedule(1.0, [] {});
        engine.run();  // now() == 1.0
        engine.schedule(0.5, [] {});
      },
      "cannot schedule an event in the past");
}

TEST(ContractDeathTest, HybridEngineConfigRejectsBadMirrorFraction) {
  EXPECT_DEATH(
      {
        set_contract_handler(&abort_contract_handler);
        core::HybridEngineConfig cfg;
        cfg.mirror_fraction = 1.5;
        cfg.validate();
      },
      "mirror_fraction");
}

TEST(ContractDeathTest, FaultConfigRejectsOutOfRangeProbability) {
  EXPECT_DEATH(
      {
        set_contract_handler(&abort_contract_handler);
        sim::FaultConfig cfg;
        cfg.container_boot_failure_p = 2.0;
        cfg.validate();
      },
      "precondition violated.*p >= 0");
}

TEST(ContractDeathTest, PrewarmPolicyRejectsNonPositiveQosTarget) {
  EXPECT_DEATH(
      {
        set_contract_handler(&abort_contract_handler);
        core::PrewarmPolicy policy;
        (void)policy.containers_for(10.0, 0.0);
      },
      "qos_target_s > 0");
}

}  // namespace
}  // namespace amoeba
