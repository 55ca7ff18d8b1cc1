#include "exp/artifact_cache.hpp"

#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <vector>

#include "obs/json.hpp"
#include "workload/functionbench.hpp"
#include "workload/meters.hpp"

namespace amoeba::exp {

namespace {
constexpr const char* kMagic = "amoeba-profile-cache-v1";

void put(std::string& tag, const char* key, double value) {
  tag += ' ';
  tag += key;
  tag += '=';
  tag += obs::json_number(value);
}

void put(std::string& tag, const char* key, const std::vector<double>& xs) {
  tag += ' ';
  tag += key;
  tag += "=[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) tag += ',';
    tag += obs::json_number(xs[i]);
  }
  tag += ']';
}

void put(std::string& tag, const workload::FunctionProfile& p) {
  tag += " profile:";
  tag += p.name;
  put(tag, "cpu_seconds", p.exec.cpu_seconds);
  put(tag, "io_bytes", p.exec.io_bytes);
  put(tag, "net_bytes", p.exec.net_bytes);
  put(tag, "code_bytes", p.code_bytes);
  put(tag, "result_bytes", p.result_bytes);
  put(tag, "platform_overhead_s", p.platform_overhead_s);
  put(tag, "rpc_overhead_s", p.rpc_overhead_s);
  put(tag, "memory_mb", p.memory_mb);
  put(tag, "cpu_cv", p.cpu_cv);
  put(tag, "qos_target_s", p.qos_target_s);
  put(tag, "peak_load_qps", p.peak_load_qps);
}

void write_header(std::ostream& os, const std::string& tag) {
  os << kMagic << '\n' << tag << '\n' << std::setprecision(17);
}

bool read_header(std::istream& is, const std::string& tag) {
  std::string magic, file_tag;
  if (!std::getline(is, magic) || magic != kMagic) return false;
  if (!std::getline(is, file_tag) || file_tag != tag) return false;
  return true;
}

void ensure_parent(const std::string& path) {
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
  }
}
}  // namespace

std::string profiling_cache_tag(const ClusterConfig& cluster,
                                const ProfilingConfig& cfg,
                                const workload::FunctionProfile* service) {
  const serverless::PlatformConfig& sp = cluster.serverless;
  std::string tag = "platform:";
  put(tag, "cores", sp.cores);
  put(tag, "pool_memory_mb", sp.pool_memory_mb);
  put(tag, "disk_bps", sp.disk_bps);
  put(tag, "net_bps", sp.net_bps);
  put(tag, "container_core_cap", sp.container_core_cap);
  put(tag, "cpu_interference", sp.cpu_interference);
  put(tag, "io_efficiency", sp.io_efficiency);
  put(tag, "cold_start_mean_s", sp.cold_start_mean_s);
  put(tag, "cold_start_cv", sp.cold_start_cv);
  put(tag, "keep_alive_s", sp.keep_alive_s);
  put(tag, "crash_after_completion_p", sp.crash_after_completion_p);
  tag += " seed=" + std::to_string(cluster.seed);
  tag += " profiling:";
  put(tag, "pressure_grid", cfg.pressure_grid);
  put(tag, "load_fractions", cfg.load_fractions);
  put(tag, "cell_duration_s", cfg.cell_duration_s);
  put(tag, "warmup_s", cfg.warmup_s);
  put(tag, "solo_probe_qps", cfg.solo_probe_qps);
  for (const auto kind : workload::kAllMeters) {
    put(tag, workload::meter_profile(kind));
  }
  if (service != nullptr) {
    for (const auto kind :
         {workload::StressKind::kCpu, workload::StressKind::kDiskIo,
          workload::StressKind::kNetwork}) {
      put(tag, workload::make_stressor(kind));
    }
    put(tag, *service);
  }
  return tag;
}

std::string default_cache_dir() { return "amoeba_profile_cache"; }

void save_calibration(const std::string& path, const std::string& tag,
                      const core::MeterCalibration& calibration) {
  AMOEBA_EXPECTS(calibration.complete());
  ensure_parent(path);
  std::ofstream os(path, std::ios::trunc);
  AMOEBA_EXPECTS_MSG(static_cast<bool>(os), "cannot write " + path);
  write_header(os, tag);
  os << "meters " << core::kNumResources << '\n';
  for (std::size_t d = 0; d < core::kNumResources; ++d) {
    const auto& pts = calibration.curves[d]->points();
    os << "curve " << d << ' ' << pts.size() << '\n';
    for (const auto& p : pts) os << p.pressure << ' ' << p.latency << '\n';
  }
}

std::optional<core::MeterCalibration> load_calibration(
    const std::string& path, const std::string& tag) {
  std::ifstream is(path);
  if (!is || !read_header(is, tag)) return std::nullopt;
  std::string word;
  std::size_t n = 0;
  if (!(is >> word >> n) || word != "meters" || n != core::kNumResources) {
    return std::nullopt;
  }
  core::MeterCalibration cal;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t dim = 0, count = 0;
    if (!(is >> word >> dim >> count) || word != "curve" ||
        dim >= core::kNumResources || count < 2) {
      return std::nullopt;
    }
    std::vector<core::CurvePoint> pts(count);
    for (auto& p : pts) {
      if (!(is >> p.pressure >> p.latency)) return std::nullopt;
    }
    cal.curves[dim] = core::MeterCurve(std::move(pts));
  }
  return cal.complete() ? std::optional(cal) : std::nullopt;
}

void save_artifacts(const std::string& path, const std::string& tag,
                    const core::ServiceArtifacts& artifacts) {
  AMOEBA_EXPECTS(artifacts.complete());
  ensure_parent(path);
  std::ofstream os(path, std::ios::trunc);
  AMOEBA_EXPECTS_MSG(static_cast<bool>(os), "cannot write " + path);
  write_header(os, tag);
  os << "solo " << artifacts.solo_latency_s << '\n';
  os << "alpha " << artifacts.alpha_s << '\n';
  os << "footprint";
  for (double f : artifacts.pressure_per_qps) os << ' ' << f;
  os << '\n';
  for (std::size_t d = 0; d < core::kNumResources; ++d) {
    const auto& s = *artifacts.surfaces[d];
    os << "surface " << d << ' ' << s.pressures().size() << ' '
       << s.loads().size() << '\n';
    for (double p : s.pressures()) os << p << ' ';
    os << '\n';
    for (double l : s.loads()) os << l << ' ';
    os << '\n';
    for (std::size_t pi = 0; pi < s.pressures().size(); ++pi) {
      for (std::size_t li = 0; li < s.loads().size(); ++li) {
        os << s.value(pi, li) << ' ';
      }
    }
    os << '\n';
  }
}

std::optional<core::ServiceArtifacts> load_artifacts(const std::string& path,
                                                     const std::string& tag) {
  std::ifstream is(path);
  if (!is || !read_header(is, tag)) return std::nullopt;
  core::ServiceArtifacts art;
  std::string word;
  if (!(is >> word >> art.solo_latency_s) || word != "solo") {
    return std::nullopt;
  }
  if (!(is >> word >> art.alpha_s) || word != "alpha") return std::nullopt;
  if (!(is >> word) || word != "footprint") return std::nullopt;
  for (auto& f : art.pressure_per_qps) {
    if (!(is >> f)) return std::nullopt;
  }
  for (std::size_t i = 0; i < core::kNumResources; ++i) {
    std::size_t dim = 0, np = 0, nl = 0;
    if (!(is >> word >> dim >> np >> nl) || word != "surface" ||
        dim >= core::kNumResources || np < 2 || nl < 2) {
      return std::nullopt;
    }
    std::vector<double> ps(np), ls(nl), lat(np * nl);
    for (auto& v : ps) {
      if (!(is >> v)) return std::nullopt;
    }
    for (auto& v : ls) {
      if (!(is >> v)) return std::nullopt;
    }
    for (auto& v : lat) {
      if (!(is >> v)) return std::nullopt;
    }
    art.surfaces[dim] = core::LatencySurface(std::move(ps), std::move(ls),
                                             std::move(lat));
  }
  return art.complete() ? std::optional(art) : std::nullopt;
}

}  // namespace amoeba::exp
