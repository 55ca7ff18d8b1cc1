// Unit tests for the self-profiler (obs/profiler.hpp): domain names,
// segment-accounting invariants under nested scopes, JSONL and
// Chrome-trace export, and per-thread accumulator merging when scopes run
// on exp::parallel_for workers (the tsan and clang-thread-safety legs run
// the Profiler tests, so the attach/merge locking is race-checked).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "exp/sweep.hpp"
#include "obs/json.hpp"
#include "obs/profiler.hpp"

namespace amoeba::obs {
namespace {

/// Keep a core busy long enough for the raw clock to advance; returns a
/// value so the loop cannot be optimized away.
std::uint64_t spin(std::uint64_t iters) {
  volatile std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < iters; ++i) acc = acc + i;
  return acc;
}

TEST(Profiler, DomainNamesRoundTrip) {
  // A report's columns name the domains in enum order, so a column index
  // read back from an export maps to the domain it was charged to.
  const auto r = Profiler().report();
  ASSERT_EQ(r.domains.size(), kProfDomainCount);
  for (std::size_t i = 0; i < kProfDomainCount; ++i) {
    EXPECT_EQ(r.domains[i], to_string(static_cast<ProfDomain>(i)));
    for (std::size_t j = 0; j < i; ++j) EXPECT_NE(r.domains[i], r.domains[j]);
  }
  EXPECT_STREQ(to_string(static_cast<ProfDomain>(kProfDomainCount)), "?");
}

TEST(Profiler, ScopesAreNoOpsWhenDetached) {
  // No profiler attached to this thread: scopes must be inert.
  AMOEBA_PROF_SCOPE(kFairShare);
  { AMOEBA_PROF_SCOPE(kStats); }
  Profiler prof;
  const auto r = prof.report();
  EXPECT_EQ(r.threads, 0u);
  EXPECT_DOUBLE_EQ(r.attributed_s(), 0.0);
}

TEST(Profiler, NestedScopesSeparateSelfFromTotal) {
  Profiler prof;
  const auto fs = static_cast<std::size_t>(ProfDomain::kFairShare);
  const auto st = static_cast<std::size_t>(ProfDomain::kStats);
  {
    ProfilerAttach attach(&prof);
    AMOEBA_PROF_SCOPE(kFairShare);
    spin(200000);
    {
      AMOEBA_PROF_SCOPE(kStats);
      spin(200000);
    }
    spin(200000);
  }
  const auto r = prof.report();
  ASSERT_EQ(r.threads, 1u);
  EXPECT_EQ(r.dropped_scopes, 0u);
  EXPECT_EQ(r.count[fs], 1u);
  EXPECT_EQ(r.count[st], 1u);
  // Segment accounting: the inner kStats span is excluded from kFairShare's
  // self time but included in its total (kFairShare stayed on the stack).
  EXPECT_GT(r.self_s[fs], 0.0);
  EXPECT_GT(r.self_s[st], 0.0);
  EXPECT_GE(r.total_s[fs], (r.self_s[fs] + r.self_s[st]) * 0.999);
  EXPECT_GE(r.total_s[st], r.self_s[st] * 0.999);
  // Self times never double-count, so their sum is within the session wall.
  EXPECT_LE(r.attributed_s(), r.wall_s * 1.5);
  // Bucket rows carry the same self time as the totals (single bucket 0).
  ASSERT_EQ(r.buckets.size(), 1u);
  EXPECT_EQ(r.buckets[0].index, 0u);
  for (std::size_t d = 0; d < kProfDomainCount; ++d) {
    EXPECT_NEAR(r.buckets[0].self_s[d], r.self_s[d], 1e-12);
  }
}

TEST(Profiler, SameDomainNestIsElided) {
  Profiler prof;
  const auto fs = static_cast<std::size_t>(ProfDomain::kFairShare);
  {
    ProfilerAttach attach(&prof);
    AMOEBA_PROF_SCOPE(kFairShare);
    {
      AMOEBA_PROF_SCOPE(kFairShare);  // same domain: no new frame
      spin(100000);
    }
  }
  const auto r = prof.report();
  EXPECT_EQ(r.count[fs], 1u) << "inner same-domain scope opened a frame";
  EXPECT_GE(r.total_s[fs], r.self_s[fs]);
}

TEST(Profiler, EngineDispatchAdvancesSimTimeBuckets) {
  static_assert(Profiler::kBucketWidthS == 5.0);
  Profiler prof;
  {
    ProfilerAttach attach(&prof);
    prof.engine_run_begin();
    prof.engine_dispatch(1.0);  // bucket 0
    spin(100000);
    prof.engine_dispatch(12.0);  // bucket 2: flushes segment into bucket 0
    spin(100000);
    prof.engine_run_end();  // closes kEngine, charging bucket 2
  }
  const auto r = prof.report();
  const auto eng = static_cast<std::size_t>(ProfDomain::kEngine);
  EXPECT_EQ(r.bucket_width_s, Profiler::kBucketWidthS);
  EXPECT_EQ(r.count[eng], 1u);
  ASSERT_EQ(r.buckets.size(), 2u);
  EXPECT_EQ(r.buckets[0].index, 0u);
  EXPECT_EQ(r.buckets[1].index, 2u);
  EXPECT_DOUBLE_EQ(r.buckets[1].sim_t0_s, 10.0);
  EXPECT_GT(r.buckets[0].self_s[eng], 0.0);
  EXPECT_GT(r.buckets[1].self_s[eng], 0.0);
}

TEST(Profiler, JsonlRoundTripsThroughParseJson) {
  // Hand-built report. json_number guarantees strtod-exact output, so
  // equality is exact even for values like 1/3 and 0.1 * d.
  ProfileReport in;
  in.bucket_width_s = 5.0;
  in.wall_s = 1.0 / 3.0;
  in.threads = 3;
  in.dropped_scopes = 7;
  for (std::size_t d = 0; d < kProfDomainCount; ++d) {
    in.domains.push_back(to_string(static_cast<ProfDomain>(d)));
    in.self_s.push_back(0.1 * static_cast<double>(d));
    in.total_s.push_back(0.25 * static_cast<double>(d));
    in.count.push_back(d * 11);
  }
  ProfileReport::Bucket b;
  b.index = 4;
  b.sim_t0_s = 20.0;
  b.self_s.assign(kProfDomainCount, 0.0625);
  in.buckets.push_back(b);

  std::stringstream stream;
  write_profile_jsonl(in, stream);

  // Every line is a standalone obs::parse_json document: meta, total, and
  // one bucket.
  std::vector<JsonValue> lines;
  std::string line;
  while (std::getline(stream, line)) {
    auto doc = parse_json(line);
    ASSERT_TRUE(doc && doc->is_object()) << line;
    lines.push_back(std::move(*doc));
  }
  ASSERT_EQ(lines.size(), 3u);
  const auto numbers = [](const JsonValue& array) {
    std::vector<double> out;
    for (const JsonValue& v : array.array) out.push_back(v.number);
    return out;
  };

  const JsonValue& meta = lines[0];
  EXPECT_EQ(meta.at("type").string, "profile_meta");
  EXPECT_EQ(meta.at("bucket_width_s").number, in.bucket_width_s);
  EXPECT_EQ(meta.at("wall_s").number, in.wall_s);
  EXPECT_EQ(meta.at("threads").number, static_cast<double>(in.threads));
  EXPECT_EQ(meta.at("dropped_scopes").number,
            static_cast<double>(in.dropped_scopes));
  std::vector<std::string> domains;
  for (const JsonValue& d : meta.at("domains").array) {
    domains.push_back(d.string);
  }
  EXPECT_EQ(domains, in.domains);

  const JsonValue& total = lines[1];
  EXPECT_EQ(total.at("type").string, "profile_total");
  EXPECT_EQ(numbers(total.at("self_s")), in.self_s);
  EXPECT_EQ(numbers(total.at("total_s")), in.total_s);
  std::vector<double> count;
  for (const std::uint64_t c : in.count) {
    count.push_back(static_cast<double>(c));
  }
  EXPECT_EQ(numbers(total.at("count")), count);

  const JsonValue& bucket = lines[2];
  EXPECT_EQ(bucket.at("type").string, "profile_bucket");
  EXPECT_EQ(bucket.at("i").number, 4.0);
  EXPECT_EQ(bucket.at("sim_t0_s").number, 20.0);
  EXPECT_EQ(numbers(bucket.at("self_s")), b.self_s);
}

TEST(Profiler, ChromeTraceIsValidJson) {
  Profiler prof;
  {
    ProfilerAttach attach(&prof);
    AMOEBA_PROF_SCOPE(kMonitor);
    spin(100000);
  }
  const auto r = prof.report();
  std::stringstream out;
  write_profile_chrome_trace(r, out);
  const auto doc = parse_json(out.str());
  ASSERT_TRUE(doc && doc->is_array());
  ASSERT_FALSE(doc->array.empty());
  EXPECT_TRUE(doc->array[0].is_object());  // process_name metadata record
}

TEST(Profiler, WorkerThreadsMergeIntoOneReport) {
  // Scopes recorded on sweep workers (one accumulator per attach) must all
  // land in the merged report. Under TSAN this exercises the states_ list
  // mutation from concurrent attach_current_thread calls against the
  // coordinator's report() merge.
  constexpr int kTasks = 16;
  constexpr std::uint64_t kSpin = 50000;
  Profiler prof;
  std::atomic<int> ran{0};
  exp::parallel_for(kTasks, 4, [&prof, &ran](std::size_t) {
    ProfilerAttach attach(&prof);
    {
      AMOEBA_PROF_SCOPE(kFairShare);
      spin(kSpin);
      {
        AMOEBA_PROF_SCOPE(kStats);
        spin(kSpin);
      }
    }
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), kTasks);
  const auto r = prof.report();
  const auto fs = static_cast<std::size_t>(ProfDomain::kFairShare);
  const auto st = static_cast<std::size_t>(ProfDomain::kStats);
  // One accumulator per task attach; every scope pair accounted exactly.
  EXPECT_EQ(r.threads, static_cast<std::uint32_t>(kTasks));
  EXPECT_EQ(r.count[fs], static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(r.count[st], static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(r.dropped_scopes, 0u);
  EXPECT_GT(r.self_s[fs], 0.0);
  EXPECT_GT(r.self_s[st], 0.0);
  EXPECT_GE(r.total_s[fs], r.self_s[fs] + r.self_s[st] * 0.99);
}

}  // namespace
}  // namespace amoeba::obs
