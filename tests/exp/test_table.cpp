// Direct tests for the result tables the cluster and call-graph runners
// print.
//
// test_sweep_table.cpp covers the Table primitive (alignment, width
// contract, format helpers); this file pins the shape and content of the
// tables the runners emit — per-service or per-stage rows plus a trailing
// TOTAL or E2E row — by reading back their printed form cell by cell.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "exp/callgraph.hpp"
#include "exp/cluster.hpp"
#include "exp/table.hpp"

namespace amoeba::exp {
namespace {

ClusterRunResult two_service_result() {
  ClusterRunResult r;
  r.duration_s = 3600.0;
  r.services_usage.cpu_core_seconds = 9000.0;
  r.services_usage.memory_mb_seconds = 2048.0 * 3600.0;
  r.meter_usage.cpu_core_seconds = 900.0;
  r.meter_usage.memory_mb_seconds = 1024.0 * 3600.0;

  ClusterServiceResult a;
  a.name = "float#0";
  a.qos_target_s = 0.15;
  a.latencies.add(0.1);
  a.latencies.add(0.2);  // one of two samples violates -> 50.0%
  a.queries = 2;
  a.switches.resize(3);
  a.n_max_asked = 10;
  a.n_max_granted = 7;
  a.usage.cpu_core_seconds = 7200.0;
  a.usage.memory_mb_seconds = 1024.0 * 3600.0;

  ClusterServiceResult b;
  b.name = "dd#1";
  b.qos_target_s = 0.5;
  b.latencies.add(0.25);
  b.queries = 1;
  b.n_max_asked = 3;
  b.n_max_granted = 3;
  b.usage.cpu_core_seconds = 1800.0;
  b.usage.memory_mb_seconds = 1024.0 * 3600.0;

  r.services = {a, b};
  return r;
}

/// The cells of every row Table::print writes, header first, without the
/// rule lines and the column padding.
std::vector<std::vector<std::string>> printed_rows(const Table& t) {
  std::ostringstream os;
  t.print(os);
  std::istringstream is(os.str());
  std::vector<std::vector<std::string>> rows;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line.front() != '|') continue;
    std::vector<std::string> cells;
    std::size_t start = 1;
    for (std::size_t bar = line.find('|', start); bar != std::string::npos;
         bar = line.find('|', start)) {
      const std::string cell = line.substr(start, bar - start);
      const std::size_t first = cell.find_first_not_of(' ');
      const std::size_t last = cell.find_last_not_of(' ');
      cells.push_back(first == std::string::npos
                          ? std::string()
                          : cell.substr(first, last - first + 1));
      start = bar + 1;
    }
    rows.push_back(std::move(cells));
  }
  return rows;
}

TEST(ClusterTable, HasOneRowPerServicePlusTotal) {
  const Table t = cluster_table(two_service_result());
  EXPECT_EQ(t.rows(), 3u);  // 2 services + TOTAL
  EXPECT_EQ(t.cols(), 9u);
}

TEST(ClusterTable, PrintedRowsCarryServiceCells) {
  const ClusterRunResult r = two_service_result();
  const auto lines = printed_rows(cluster_table(r));
  ASSERT_EQ(lines.size(), 4u);  // header + 2 services + TOTAL

  const std::vector<std::string> header = {
      "service", "qos_s",    "queries", "p95_s",  "viol",
      "switches", "n_max",   "core_h",  "mem_GBh"};
  EXPECT_EQ(lines[0], header);

  // float#0: p95 of {0.1, 0.2} is 0.2 (with 0.2 > the 0.15 target, one of
  // two samples violates), 7200 core-seconds are 2 core-hours.
  const auto& a = lines[1];
  ASSERT_EQ(a.size(), header.size());
  EXPECT_EQ(a[0], "float#0");
  EXPECT_EQ(a[1], "0.150");
  EXPECT_EQ(a[2], "2");
  EXPECT_EQ(a[3], fmt_fixed(r.services[0].p95(), 3));
  EXPECT_EQ(a[4], "50.0%");
  EXPECT_EQ(a[5], "3");
  EXPECT_EQ(a[6], "7/10");
  EXPECT_EQ(a[7], "2.00");
  EXPECT_EQ(a[8], "1.00");

  const auto& b = lines[2];
  EXPECT_EQ(b[0], "dd#1");
  EXPECT_EQ(b[4], "0.0%");
  EXPECT_EQ(b[6], "3/3");

  // TOTAL row folds the meters in: (9000+900)/3600 core-hours and
  // (2048+1024) MB x 3600 s = 3 GB-hours.
  const auto& total = lines[3];
  EXPECT_EQ(total[0], "TOTAL(+meters)");
  EXPECT_EQ(total[1], "-");
  EXPECT_EQ(total[7], "2.75");
  EXPECT_EQ(total[8], "3.00");
}

TEST(ClusterTable, EmptyTenantListStillPrintsTheTotalRow) {
  // A degenerate run with zero services must keep the header + TOTAL shape
  // (meters still rent cores) rather than emit an empty table.
  ClusterRunResult r;
  r.duration_s = 3600.0;
  r.meter_usage.cpu_core_seconds = 1800.0;
  r.meter_usage.memory_mb_seconds = 512.0 * 3600.0;
  const Table t = cluster_table(r);
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.cols(), 9u);

  const auto lines = printed_rows(t);
  ASSERT_EQ(lines.size(), 2u);  // header + TOTAL
  EXPECT_EQ(lines[1][0], "TOTAL(+meters)");
  EXPECT_EQ(lines[1][7], "0.50");
  EXPECT_EQ(lines[1][8], "0.50");
}

TEST(ClusterTable, SingleTenantRowMatchesTheTotal) {
  ClusterRunResult r = two_service_result();
  r.services.resize(1);
  r.services_usage = r.services[0].usage;
  r.meter_usage = {};
  const Table t = cluster_table(r);
  EXPECT_EQ(t.rows(), 2u);  // the tenant + TOTAL

  const auto lines = printed_rows(t);
  ASSERT_EQ(lines.size(), 3u);
  // With no meters and one tenant, TOTAL equals the tenant's own columns.
  EXPECT_EQ(lines[2][7], lines[1][7]);
  EXPECT_EQ(lines[2][8], lines[1][8]);
}

CallGraphRunResult callgraph_result() {
  CallGraphRunResult r;
  r.budget_mode = BudgetMode::kEndToEndAware;
  r.e2e_qos_target_s = 0.8;
  r.duration_s = 1200.0;
  r.trace_hash = 0xabcdef;
  r.root_injected = 40;
  r.queries_completed = 39;
  r.queries_unfinished = 1;
  r.e2e_latencies.add(0.5);
  r.e2e_latencies.add(0.9);
  r.stages_usage.cpu_core_seconds = 7200.0;

  CallGraphStageResult s;
  s.stage = 0;
  s.name = "float#0@s0";
  s.label = "front";
  s.pin = workload::StagePin::kManaged;
  s.initial_budget_s = 0.4;
  s.final_budget_s = 0.45;
  s.latencies.add(0.2);
  s.submitted = 40;
  s.finished = 39;
  s.switches = 2;
  s.usage.cpu_core_seconds = 7200.0;
  r.stages.push_back(s);
  return r;
}

TEST(CallGraphTable, PrintedRowsAgreeWithTheResult) {
  const CallGraphRunResult r = callgraph_result();
  const auto lines = printed_rows(callgraph_table(r));
  ASSERT_EQ(lines.size(), r.stages.size() + 2u);  // header + stages + E2E

  for (std::size_t i = 0; i < r.stages.size(); ++i) {
    const CallGraphStageResult& s = r.stages[i];
    const auto& row = lines[i + 1];
    ASSERT_EQ(row.size(), 9u);
    EXPECT_EQ(row[0], std::to_string(s.stage) + ":" + s.name);
    EXPECT_EQ(row[1], s.label);
    EXPECT_EQ(row[2], workload::to_string(s.pin));
    EXPECT_EQ(row[3], fmt_fixed(s.initial_budget_s, 3));
    EXPECT_EQ(row[4], fmt_fixed(s.final_budget_s, 3));
    EXPECT_EQ(row[5], std::to_string(s.finished));
    EXPECT_EQ(row[6], fmt_fixed(s.p95(), 3));
    EXPECT_EQ(row[7], std::to_string(s.switches));
  }

  // The trailing E2E row carries the run-level numbers.
  const auto& e2e = lines.back();
  EXPECT_EQ(e2e[0], "E2E");
  EXPECT_EQ(e2e[1], to_string(r.budget_mode));
  EXPECT_EQ(e2e[3], fmt_fixed(r.e2e_qos_target_s, 3));
  EXPECT_EQ(e2e[6], fmt_fixed(r.e2e_p95(), 3));
  EXPECT_EQ(e2e[8], fmt_fixed(r.total_core_hours(), 2));
}

TEST(ClusterTable, PrintedLinesShareOneWidth) {
  std::ostringstream os;
  cluster_table(two_service_result()).print(os);
  std::istringstream is(os.str());
  std::string line;
  std::size_t width = 0;
  while (std::getline(is, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width);
  }
  EXPECT_GT(width, 0u);
}

}  // namespace
}  // namespace amoeba::exp
