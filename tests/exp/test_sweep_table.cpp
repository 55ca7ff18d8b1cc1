#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/sweep.hpp"
#include "exp/table.hpp"

namespace amoeba::exp {
namespace {

TEST(Sweep, VisitsEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(500);
  parallel_for(500, 4, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Sweep, ZeroItemsNoop) {
  parallel_for(0, 4, [](std::size_t) { FAIL(); });
}

TEST(Sweep, SerialWhenOneThread) {
  std::vector<std::size_t> order;
  parallel_for(10, 1, [&](std::size_t i) { order.push_back(i); });
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Sweep, OneJobRunsOnCallingThread) {
  // One worker runs every index on the calling thread: no thread is started.
  const auto caller = std::this_thread::get_id();
  const auto out = parallel_map<int>(8, 1, [caller](std::size_t) {
    return std::this_thread::get_id() == caller ? 1 : 0;
  });
  ASSERT_EQ(out.size(), 8u);
  for (const int on_caller : out) EXPECT_EQ(on_caller, 1);
}

TEST(Sweep, ExceptionPropagates) {
  EXPECT_THROW(parallel_for(100, 4,
                            [](std::size_t i) {
                              if (i == 42) throw std::runtime_error("x");
                            }),
               std::runtime_error);
}

TEST(Sweep, ExceptionRethrownAfterDrain) {
  // The exception is rethrown only after every in-flight index has drained:
  // no index is still running when the call returns.
  std::atomic<int> running{0};
  std::atomic<int> finished{0};
  const auto cell = [&](std::size_t i) -> int {
    running.fetch_add(1);
    if (i == 13) {
      running.fetch_sub(1);
      throw std::runtime_error("x");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    running.fetch_sub(1);
    finished.fetch_add(1);
    return static_cast<int>(i);
  };
  EXPECT_THROW((void)parallel_map<int>(32, 4, cell), std::runtime_error);
  EXPECT_EQ(running.load(), 0);
  EXPECT_GT(finished.load(), 0);
}

TEST(Sweep, ParallelMapPreservesOrder) {
  const auto out = parallel_map<std::size_t>(
      64, 4, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 64u);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(out[i], i * i);
}

TEST(Sweep, ManyItemsCollectInIndexOrder) {
  // More items than workers, collected in index order.
  const auto out = parallel_map<std::size_t>(
      100, 4, [](std::size_t i) { return i * 3 + 1; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(out[i], i * 3 + 1);
}

// Each cell hashes its own seeded stream — a stand-in for "own Engine, own
// RNG". The table must be a pure function of the configuration list.
std::vector<std::uint64_t> seeded_table(unsigned jobs) {
  const std::vector<std::uint64_t> configs = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3,
                                              5, 8, 9, 7, 9, 3, 2, 3, 8, 4};
  return parallel_map<std::uint64_t>(
      configs.size(), jobs, [&configs](std::size_t i) {
        const std::uint64_t seed = configs[i];
        std::uint64_t h = seed * 0x9e3779b97f4a7c15ULL;
        for (int k = 0; k < 1000; ++k) h = h * 6364136223846793005ULL + seed;
        return h;
      });
}

TEST(Sweep, IdenticalResultTablesAtJobs1AndJobs8) {
  EXPECT_EQ(seeded_table(1), seeded_table(8));
}

TEST(Sweep, EffectiveThreadsNeverZero) {
  EXPECT_GE(effective_threads(0), 1u);
  EXPECT_EQ(effective_threads(7), 7u);
}

char** make_argv(std::vector<std::string>& args, std::vector<char*>& ptrs) {
  ptrs.clear();
  for (auto& a : args) ptrs.push_back(a.data());
  ptrs.push_back(nullptr);
  return ptrs.data();
}

TEST(ParseJobsFlag, DefaultsToOneAndLeavesArgvAlone) {
  std::vector<std::string> args = {"bench", "--events", "100"};
  std::vector<char*> ptrs;
  char** argv = make_argv(args, ptrs);
  int argc = 3;
  EXPECT_EQ(parse_jobs_flag(argc, argv), 1u);
  EXPECT_EQ(argc, 3);
  EXPECT_STREQ(argv[1], "--events");
}

TEST(ParseJobsFlag, ConsumesBothSpellingsAndRemovesThemFromArgv) {
  std::vector<std::string> args = {"bench", "--jobs", "4", "--foo"};
  std::vector<char*> ptrs;
  char** argv = make_argv(args, ptrs);
  int argc = 4;
  EXPECT_EQ(parse_jobs_flag(argc, argv), 4u);
  EXPECT_EQ(argc, 2);  // --jobs and its value consumed
  EXPECT_STREQ(argv[1], "--foo");
  EXPECT_EQ(argv[2], nullptr);

  std::vector<std::string> args2 = {"bench", "--jobs=8"};
  char** argv2 = make_argv(args2, ptrs);
  int argc2 = 2;
  EXPECT_EQ(parse_jobs_flag(argc2, argv2), 8u);
  EXPECT_EQ(argc2, 1);
}

TEST(ParseJobsFlag, RejectsNonNumericAndOutOfRange) {
  std::vector<char*> ptrs;
  // A bare "--jobs" as the last argument has no value at all.
  for (const std::string bad :
       {"--jobs=zero", "--jobs=0", "--jobs=4096", "--jobs"}) {
    std::vector<std::string> args = {"bench", bad};
    char** argv = make_argv(args, ptrs);
    int argc = 2;
    EXPECT_THROW((void)parse_jobs_flag(argc, argv), ContractError) << bad;
  }
}

TEST(Table, PrintsAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("| name      | value |"), std::string::npos);
  EXPECT_NE(s.find("| long-name | 22    |"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractError);
}

TEST(Format, FixedAndPercent) {
  EXPECT_EQ(fmt_fixed(1.23456, 2), "1.23");
  EXPECT_EQ(fmt_percent(0.729, 1), "72.9%");
}

}  // namespace
}  // namespace amoeba::exp
