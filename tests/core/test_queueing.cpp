#include "core/queueing.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <latch>
#include <optional>
#include <thread>
#include <vector>

#include "core/reference_queueing.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "stats/percentile.hpp"

namespace amoeba::core::queueing {
namespace {

using testing::erlang_c;
using testing::mean_wait;
using testing::pi0;
using testing::pi_n;

/// Direct event-driven M/M/n queue: Poisson(lambda) arrivals, n servers
/// with exp(mu) service, one FIFO queue. Returns waiting-time samples.
stats::SampleSet simulate_mmn(double lambda, int n, double mu,
                              double duration, std::uint64_t seed) {
  sim::Engine engine;
  sim::Rng rng(seed);
  int busy = 0;
  std::deque<double> queue;  // arrival times of waiting customers
  stats::SampleSet waits;

  std::function<void()> depart = [&] {
    if (!queue.empty()) {
      const double arrived = queue.front();
      queue.pop_front();
      waits.add(engine.now() - arrived);
      engine.schedule_in(rng.exponential(mu), depart);
    } else {
      --busy;
    }
  };
  std::function<void()> arrive = [&] {
    if (busy < n) {
      ++busy;
      waits.add(0.0);
      engine.schedule_in(rng.exponential(mu), depart);
    } else {
      queue.push_back(engine.now());
    }
    if (engine.now() < duration) {
      engine.schedule_in(rng.exponential(lambda), arrive);
    }
  };
  engine.schedule_in(rng.exponential(lambda), arrive);
  engine.run();
  return waits;
}

class MmnCrossValidation
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(MmnCrossValidation, WaitQuantileMatchesSimulation) {
  // The paper's Eq. 4 closed form against a direct simulation of the same
  // queue — the discriminant's math must describe the physics it models.
  const auto [rho_target, n] = GetParam();
  const double mu = 1.0;
  const double lambda = rho_target * n * mu;
  const auto waits = simulate_mmn(lambda, n, mu, 60000.0, 1234);
  ASSERT_GT(waits.size(), 20000u);
  for (double q : {0.90, 0.95}) {
    const double theory = wait_quantile(lambda, n, mu, q);
    const double simulated = waits.quantile(q);
    if (theory <= 1e-12) {
      EXPECT_LT(simulated, 0.5 / mu) << "q=" << q;
    } else {
      EXPECT_NEAR(simulated / theory, 1.0, 0.15)
          << "q=" << q << " theory=" << theory << " sim=" << simulated;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Operating, MmnCrossValidation,
    ::testing::Values(std::make_tuple(0.7, 1), std::make_tuple(0.9, 1),
                      std::make_tuple(0.8, 4), std::make_tuple(0.9, 8),
                      std::make_tuple(0.95, 16)));

TEST(Queueing, RhoDefinition) {
  EXPECT_DOUBLE_EQ(rho(5.0, 10, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(rho(3.0, 2, 3.0), 0.5);
}

TEST(Queueing, Mm1ClosedForms) {
  // For n = 1: π0 = 1-ρ, ErlangC = ρ, E[W] = ρ/(μ-λ).
  const double lambda = 0.6, mu = 1.0;
  EXPECT_NEAR(pi0(lambda, 1, mu), 0.4, 1e-12);
  EXPECT_NEAR(erlang_c(lambda, 1, mu), 0.6, 1e-12);
  EXPECT_NEAR(mean_wait(lambda, 1, mu), 0.6 / 0.4, 1e-12);
}

TEST(Queueing, Mm2KnownErlangC) {
  // M/M/2 with a = λ/μ = 1 (ρ = 0.5): C = a²/(a² + 2(1-ρ)·(1+a)) ... use
  // the standard closed form: C(2,1) = 1/3.
  EXPECT_NEAR(erlang_c(1.0, 2, 1.0), 1.0 / 3.0, 1e-12);
}

TEST(Queueing, PiSumsToOne) {
  // Σ_k π_k = 1: check via π0 normalization for a moderate system.
  const double lambda = 7.0, mu = 1.0;
  const int n = 10;
  const double p0 = pi0(lambda, n, mu);
  double sum = 0.0;
  const double a = lambda / mu;
  double term = 1.0;  // (nρ)^0/0!
  for (int k = 0; k < n; ++k) {
    sum += term * p0;
    term *= a / (k + 1);
  }
  // Tail: geometric from k = n.
  const double r = rho(lambda, n, mu);
  sum += term * p0 / (1.0 - r);
  EXPECT_NEAR(sum, 1.0, 1e-10);
}

TEST(Queueing, WaitQuantileInvertsDistribution) {
  // Eq. 4: verify F_W(wait_quantile(q)) == q when the quantile is interior.
  const double lambda = 9.0, mu = 1.0;
  const int n = 10;
  for (double q : {0.90, 0.95, 0.99}) {
    const double t = wait_quantile(lambda, n, mu, q);
    ASSERT_GT(t, 0.0);
    const double r = rho(lambda, n, mu);
    const double fw =
        1.0 - pi_n(lambda, n, mu) / (1.0 - r) * std::exp(-n * mu * (1.0 - r) * t);
    EXPECT_NEAR(fw, q, 1e-10);
  }
}

TEST(Queueing, WaitQuantileZeroWhenLoadTiny) {
  // At negligible load, 95% of queries do not wait.
  EXPECT_DOUBLE_EQ(wait_quantile(0.001, 10, 1.0, 0.95), 0.0);
}

TEST(Queueing, WaitQuantileMonotoneInLoad) {
  double prev = -1.0;
  for (double lambda : {2.0, 5.0, 8.0, 9.5}) {
    const double t = wait_quantile(lambda, 10, 1.0, 0.95);
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(Queueing, QosSatisfiedBoundaryBehaviour) {
  const int n = 10;
  const double mu = 1.0, r = 0.95;
  EXPECT_TRUE(qos_satisfied(1.0, n, mu, 2.0, r));
  EXPECT_FALSE(qos_satisfied(9.99, n, mu, 1.05, r));
  EXPECT_FALSE(qos_satisfied(20.0, n, mu, 100.0, r));  // unstable
}

TEST(Queueing, MaxArrivalRateIsTheQosBoundary) {
  const int n = 16;
  const double mu = 2.0, t_d = 1.2, r = 0.95;
  const auto lmax = max_arrival_rate(n, mu, t_d, r);
  ASSERT_TRUE(lmax.has_value());
  EXPECT_TRUE(qos_satisfied(*lmax * 0.999, n, mu, t_d, r));
  EXPECT_FALSE(qos_satisfied(*lmax + 1e-3, n, mu, t_d, r));
}

TEST(Queueing, MaxArrivalRateNulloptWhenTargetUnreachable) {
  // Service time alone (1/μ = 1) exceeds the 0.5 s target.
  EXPECT_FALSE(max_arrival_rate(10, 1.0, 0.5, 0.95).has_value());
}

TEST(Queueing, MaxArrivalRateGrowsWithServers) {
  const double mu = 1.0, t_d = 2.0, r = 0.95;
  double prev = 0.0;
  for (int n : {1, 2, 4, 8, 16, 32}) {
    const auto lmax = max_arrival_rate(n, mu, t_d, r);
    ASSERT_TRUE(lmax.has_value());
    EXPECT_GT(*lmax, prev);
    prev = *lmax;
  }
}

TEST(Queueing, MaxArrivalRateStableForLargeN) {
  // Log-space state probabilities must survive n in the thousands.
  const auto lmax = max_arrival_rate(2000, 1.0, 1.5, 0.95);
  ASSERT_TRUE(lmax.has_value());
  EXPECT_GT(*lmax, 1800.0);
  EXPECT_LT(*lmax, 2000.0);
}

TEST(Queueing, Eq5AgreesWithBisectionSolver) {
  // The paper's closed form (solved by fixed point) and the robust
  // bisection must identify the same switch boundary.
  for (int n : {4, 8, 16, 32}) {
    const double mu = 2.0, t_d = 1.0, r = 0.95;
    const auto fixed_point = eq5_lambda(n, mu, t_d, r);
    const auto bisect = max_arrival_rate(n, mu, t_d, r);
    ASSERT_TRUE(fixed_point.has_value()) << n;
    ASSERT_TRUE(bisect.has_value()) << n;
    EXPECT_NEAR(*fixed_point, *bisect, 0.02 * *bisect) << "n=" << n;
  }
}

TEST(Queueing, Eq5NulloptWhenServiceMissesTarget) {
  EXPECT_FALSE(eq5_lambda(10, 1.0, 0.9, 0.95).has_value());
}

TEST(Queueing, MinServersSufficientAndTight) {
  const double lambda = 20.0, mu = 2.0, t_d = 1.0, r = 0.95;
  const auto n = min_servers(lambda, mu, t_d, r);
  ASSERT_TRUE(n.has_value());
  EXPECT_TRUE(qos_satisfied(lambda, *n, mu, t_d, r));
  if (*n > 1) {
    EXPECT_FALSE(qos_satisfied(lambda, *n - 1, mu, t_d, r));
  }
}

TEST(MinServers, NulloptWhenImpossible) {
  EXPECT_FALSE(min_servers(1.0, 1.0, 0.5, 0.95).has_value());
}

TEST(MinServers, AtLeastStabilityFloor) {
  const auto n = min_servers(10.0, 1.0, 5.0, 0.95);
  ASSERT_TRUE(n.has_value());
  EXPECT_GE(*n, 11);  // ρ < 1 requires n > λ/μ
}

class QueueingSweep
    : public ::testing::TestWithParam<std::tuple<int, double, double>> {};

TEST_P(QueueingSweep, RoundTripMinServersMaxRate) {
  // min_servers(λ) = n ⇒ max_arrival_rate(n) >= λ.
  const auto [n_base, mu, t_d] = GetParam();
  const double r = 0.95;
  const auto lmax = max_arrival_rate(n_base, mu, t_d, r);
  if (!lmax.has_value()) GTEST_SKIP() << "target unreachable";
  const auto n_back = min_servers(*lmax * 0.99, mu, t_d, r);
  ASSERT_TRUE(n_back.has_value());
  EXPECT_LE(*n_back, n_base);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, QueueingSweep,
    ::testing::Combine(::testing::Values(2, 5, 10, 40),
                       ::testing::Values(0.5, 2.0, 10.0),
                       ::testing::Values(1.0, 3.0)));

/// FNV-1a over the bit patterns of doubles, one 64-bit word at a time.
struct BitHash {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(double v) {
    h ^= std::bit_cast<std::uint64_t>(v);
    h *= 0x100000001b3ULL;
  }
  // An empty optional hashes as -1 (no solution is never negative).
  void add(std::optional<double> v) { add(v.value_or(-1.0)); }
  void add(std::optional<int> v) { add(static_cast<double>(v.value_or(-1))); }
};

TEST(Queueing, DiscriminantMatchesRecordedAnchor) {
  // Every output bit of the discriminant over a grid whose n runs from one
  // server to past the log-factorial table (256 entries) and min_servers
  // scans that cross its end. Recorded when log k! came from lgamma_r on
  // every term; the table holds the same doubles, so no bit may move.
  const int ns[] = {1,  2,  3,   4,   5,   6,   7,   8,   9,   10,  12,
                    16, 31, 64,  127, 128, 200, 254, 255, 256, 257, 300};
  const double mus[] = {3.0, 20.0, 97.5};
  BitHash h;
  std::vector<double> iterates;
  for (const int n : ns) {
    for (const double mu : mus) {
      for (const double t_mult : {1.5, 4.0}) {
        for (const double r : {0.95, 0.99}) {
          h.add(max_arrival_rate(n, mu, t_mult / mu, r));
          h.add(eq5_lambda(n, mu, t_mult / mu, r, 200, &iterates));
          for (const double x : iterates) h.add(x);
        }
      }
      for (const double load : {0.1, 0.5, 0.9, 0.99}) {
        const double lambda = load * n * mu;
        h.add(erlang_c(lambda, n, mu));
        h.add(pi0(lambda, n, mu));
        h.add(pi_n(lambda, n, mu));
        h.add(mean_wait(lambda, n, mu));
        for (const double q : {0.5, 0.95, 0.999})
          h.add(wait_quantile(lambda, n, mu, q));
      }
    }
  }
  // Offered loads of 0.3 to 290 Erlangs: the scans start below and above
  // the table's end.
  for (const double erlangs : {0.3, 3.7, 40.0, 250.0, 254.5, 290.0}) {
    for (const double t_mult : {1.2, 3.0}) {
      const double mu = 10.0;
      h.add(min_servers(erlangs * mu, mu, t_mult / mu, 0.95));
    }
  }
  EXPECT_EQ(h.h, 0x15090d7cce7135d9ULL) << std::hex << h.h;
}

TEST(Queueing, FirstUseFromEightThreadsMatchesSerial) {
  // ctest runs every test in its own process, so here the log-factorial
  // table is built by whichever of eight threads, released together, gets
  // to it first (under the tsan preset this is the data-race check). Every
  // thread's solves must equal the serial ones bit for bit.
  constexpr int kThreads = 8;
  const auto solve_all = [] {
    std::vector<double> out;
    for (int n = 1; n <= 40; n += 3) {
      out.push_back(max_arrival_rate(n, 10.0, 0.3, 0.95).value_or(-1.0));
      out.push_back(wait_quantile(0.7 * n * 10.0, n, 10.0, 0.95));
    }
    return out;
  };
  std::vector<std::vector<double>> results(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      results[static_cast<std::size_t>(t)] = solve_all();
    });
  }
  for (auto& th : threads) th.join();
  const std::vector<double> serial = solve_all();
  for (const auto& r : results) {
    ASSERT_EQ(r.size(), serial.size());
    for (std::size_t i = 0; i < r.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(r[i]),
                std::bit_cast<std::uint64_t>(serial[i]))
          << "value " << i;
    }
  }
}

TEST(Queueing, ParameterValidation) {
  EXPECT_THROW((void)rho(-1.0, 10, 1.0), ContractError);
  EXPECT_THROW((void)rho(1.0, 0, 1.0), ContractError);
  EXPECT_THROW((void)wait_quantile(20.0, 10, 1.0, 0.95),
               ContractError);  // unstable
  EXPECT_THROW((void)wait_quantile(5.0, 10, 1.0, 1.0), ContractError);
}

}  // namespace
}  // namespace amoeba::core::queueing
