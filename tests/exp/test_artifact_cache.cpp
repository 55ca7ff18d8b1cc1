#include "exp/artifact_cache.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "workload/functionbench.hpp"

namespace amoeba::exp {
namespace {

class ArtifactCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("amoeba_cache_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::filesystem::path dir_;
};

core::MeterCalibration sample_calibration() {
  core::MeterCalibration cal;
  for (std::size_t d = 0; d < core::kNumResources; ++d) {
    cal.curves[d] = core::MeterCurve(
        {{0.02, 0.1 + 0.01 * static_cast<double>(d)},
         {0.5, 0.2 + 0.01 * static_cast<double>(d)},
         {0.9, 0.5 + 0.01 * static_cast<double>(d)}});
  }
  return cal;
}

core::ServiceArtifacts sample_artifacts() {
  core::ServiceArtifacts art;
  art.solo_latency_s = 0.123456789012345;
  art.alpha_s = 0.01;
  art.pressure_per_qps = {0.001, 0.002, 0.003};
  for (std::size_t d = 0; d < core::kNumResources; ++d) {
    art.surfaces[d] = core::LatencySurface(
        {0.1, 0.5, 0.9}, {1.0, 5.0},
        {0.1, 0.11, 0.2, 0.22, 0.4, 0.44});
  }
  return art;
}

TEST_F(ArtifactCacheTest, CalibrationRoundTrip) {
  const auto cal = sample_calibration();
  save_calibration(path("m.txt"), "tag-1", cal);
  const auto loaded = load_calibration(path("m.txt"), "tag-1");
  ASSERT_TRUE(loaded.has_value());
  for (std::size_t d = 0; d < core::kNumResources; ++d) {
    const auto& a = cal.curves[d]->points();
    const auto& b = loaded->curves[d]->points();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_DOUBLE_EQ(a[i].pressure, b[i].pressure);
      EXPECT_DOUBLE_EQ(a[i].latency, b[i].latency);
    }
  }
}

TEST_F(ArtifactCacheTest, ArtifactsRoundTripBitExact) {
  const auto art = sample_artifacts();
  save_artifacts(path("a.txt"), "tag-2", art);
  const auto loaded = load_artifacts(path("a.txt"), "tag-2");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_DOUBLE_EQ(loaded->solo_latency_s, art.solo_latency_s);
  EXPECT_DOUBLE_EQ(loaded->alpha_s, art.alpha_s);
  for (std::size_t d = 0; d < core::kNumResources; ++d) {
    EXPECT_DOUBLE_EQ(loaded->pressure_per_qps[d], art.pressure_per_qps[d]);
    const auto& a = *art.surfaces[d];
    const auto& b = *loaded->surfaces[d];
    ASSERT_EQ(a.pressures().size(), b.pressures().size());
    ASSERT_EQ(a.loads().size(), b.loads().size());
    for (std::size_t pi = 0; pi < a.pressures().size(); ++pi) {
      for (std::size_t li = 0; li < a.loads().size(); ++li) {
        EXPECT_DOUBLE_EQ(a.value(pi, li), b.value(pi, li));
      }
    }
  }
}

TEST_F(ArtifactCacheTest, TagMismatchIsMiss) {
  save_calibration(path("m.txt"), "tag-1", sample_calibration());
  EXPECT_FALSE(load_calibration(path("m.txt"), "tag-other").has_value());
  save_artifacts(path("a.txt"), "tag-1", sample_artifacts());
  EXPECT_FALSE(load_artifacts(path("a.txt"), "tag-other").has_value());
}

TEST_F(ArtifactCacheTest, MissingFileIsMiss) {
  EXPECT_FALSE(load_calibration(path("nope.txt"), "t").has_value());
  EXPECT_FALSE(load_artifacts(path("nope.txt"), "t").has_value());
}

TEST_F(ArtifactCacheTest, CorruptFileIsMissNotCrash) {
  {
    std::ofstream os(path("bad.txt"));
    os << "amoeba-profile-cache-v1\ntag\nmeters 3\ncurve 0 2\n0.1";
  }
  EXPECT_FALSE(load_calibration(path("bad.txt"), "tag").has_value());
  {
    std::ofstream os(path("bad2.txt"));
    os << "garbage\n";
  }
  EXPECT_FALSE(load_artifacts(path("bad2.txt"), "tag").has_value());
}

TEST_F(ArtifactCacheTest, SaveCreatesParentDirectories) {
  const auto nested = (dir_ / "x" / "y" / "z.txt").string();
  save_calibration(nested, "t", sample_calibration());
  EXPECT_TRUE(load_calibration(nested, "t").has_value());
}

TEST_F(ArtifactCacheTest, OverwriteReplacesContent) {
  auto art = sample_artifacts();
  save_artifacts(path("a.txt"), "t", art);
  art.solo_latency_s = 0.999;
  save_artifacts(path("a.txt"), "t", art);
  const auto loaded = load_artifacts(path("a.txt"), "t");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_DOUBLE_EQ(loaded->solo_latency_s, 0.999);
}

TEST(ProfilingCacheTag, EqualInputsGiveEqualTags) {
  const ClusterConfig cluster = default_cluster();
  ProfilingConfig cfg;
  const auto p = workload::make_float();
  EXPECT_EQ(profiling_cache_tag(cluster, cfg, &p),
            profiling_cache_tag(cluster, cfg, &p));
  // The worker count cannot change a profiling result.
  ProfilingConfig threaded = cfg;
  threaded.threads = 7;
  EXPECT_EQ(profiling_cache_tag(cluster, cfg, nullptr),
            profiling_cache_tag(cluster, threaded, nullptr));
  // A service's tag is not the meter calibration's.
  EXPECT_NE(profiling_cache_tag(cluster, cfg, &p),
            profiling_cache_tag(cluster, cfg, nullptr));
}

TEST(ProfilingCacheTag, GridValuesAreCoveredNotJustSizes) {
  const ClusterConfig cluster = default_cluster();
  const auto p = workload::make_float();
  ProfilingConfig a;
  ProfilingConfig b = a;
  b.pressure_grid.back() += 0.01;  // same size, different values
  ProfilingConfig c = a;
  c.load_fractions.front() = 0.06;
  for (const workload::FunctionProfile* service :
       {static_cast<const workload::FunctionProfile*>(nullptr), &p}) {
    const std::string tag = profiling_cache_tag(cluster, a, service);
    EXPECT_NE(tag, profiling_cache_tag(cluster, b, service));
    EXPECT_NE(tag, profiling_cache_tag(cluster, c, service));
  }
}

TEST(ProfilingCacheTag, EveryProfilingInputChangesTheTag) {
  const ClusterConfig base = default_cluster();
  const ProfilingConfig cfg;
  const auto p = workload::make_float();
  const std::string tag = profiling_cache_tag(base, cfg, &p);

  // Crash injection shares the cache directory with every crash-free bench.
  ClusterConfig crashy = base;
  crashy.serverless.crash_after_completion_p = 0.01;
  EXPECT_NE(tag, profiling_cache_tag(crashy, cfg, &p));
  EXPECT_NE(profiling_cache_tag(base, cfg, nullptr),
            profiling_cache_tag(crashy, cfg, nullptr));

  // Values closer than 6 significant digits still differ.
  ClusterConfig near = base;
  near.serverless.disk_bps += 1.0;
  EXPECT_NE(tag, profiling_cache_tag(near, cfg, &p));

  const auto cluster_differs = [&](auto mutate) {
    ClusterConfig c = base;
    mutate(c);
    return profiling_cache_tag(c, cfg, &p) != tag;
  };
  EXPECT_TRUE(cluster_differs([](ClusterConfig& c) {
    c.serverless.cold_start_cv = 0.5;
  }));
  EXPECT_TRUE(cluster_differs([](ClusterConfig& c) {
    c.serverless.container_core_cap = 2.0;
  }));
  EXPECT_TRUE(cluster_differs([](ClusterConfig& c) { c.seed = 43; }));

  const auto cfg_differs = [&](auto mutate) {
    ProfilingConfig c = cfg;
    mutate(c);
    return profiling_cache_tag(base, c, &p) != tag;
  };
  EXPECT_TRUE(cfg_differs([](ProfilingConfig& c) { c.warmup_s = 6.0; }));
  EXPECT_TRUE(cfg_differs([](ProfilingConfig& c) { c.solo_probe_qps = 3.0; }));
  EXPECT_TRUE(
      cfg_differs([](ProfilingConfig& c) { c.cell_duration_s = 31.0; }));

  const auto profile_differs = [&](auto mutate) {
    workload::FunctionProfile q = p;
    mutate(q);
    return profiling_cache_tag(base, cfg, &q) != tag;
  };
  EXPECT_TRUE(profile_differs([](workload::FunctionProfile& q) {
    q.cpu_cv = 0.2;
  }));
  EXPECT_TRUE(profile_differs([](workload::FunctionProfile& q) {
    q.code_bytes += 1.0;
  }));
  EXPECT_TRUE(profile_differs([](workload::FunctionProfile& q) {
    q.result_bytes += 1.0;
  }));
  EXPECT_TRUE(profile_differs([](workload::FunctionProfile& q) {
    q.memory_mb = 512.0;
  }));
}

}  // namespace
}  // namespace amoeba::exp
