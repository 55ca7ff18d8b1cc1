#include "obs/profiler.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>

#include "obs/json.hpp"

namespace amoeba::obs {

namespace detail {
constinit thread_local ProfThreadState* t_prof_state = nullptr;
}  // namespace detail

namespace {
// Which profiler the current thread is attached to; pairs with
// detail::t_prof_state so detach can check ownership.
thread_local const Profiler* t_prof_owner = nullptr;

constexpr const char* kDomainNames[kProfDomainCount] = {
    "engine",     "fair_share",      "monitor",
    "controller", "serverless_pool", "iaas_pool",
    "stats",      "export",          "harness",
};
}  // namespace

const char* to_string(ProfDomain d) noexcept {
  const auto i = static_cast<std::size_t>(d);
  return i < kProfDomainCount ? kDomainNames[i] : "?";
}

double ProfileReport::attributed_s() const {
  double sum = 0.0;
  for (double v : self_s) sum += v;
  return sum;
}

Profiler::Profiler()
    : epoch_ns_(detail::prof_now_ns()), epoch_raw_(detail::prof_now_raw()) {}

void Profiler::attach_current_thread() {
  AMOEBA_EXPECTS_MSG(detail::t_prof_state == nullptr,
                     "thread already attached to a profiler");
  auto state = std::make_unique<detail::ProfThreadState>();
  state->inv_bucket_width = 1.0 / kBucketWidthS;
  state->set_bucket(0);
  state->last_mark = detail::prof_now_raw();
  detail::ProfThreadState* raw = state.get();
  {
    common::MutexLock lock(mutex_);
    states_.push_back(std::move(state));
  }
  detail::t_prof_state = raw;
  t_prof_owner = this;
  AMOEBA_ENSURES(detail::t_prof_state != nullptr);
}

void Profiler::detach_current_thread() {
  AMOEBA_EXPECTS_MSG(t_prof_owner == this,
                     "thread is not attached to this profiler");
  AMOEBA_EXPECTS_MSG(detail::t_prof_state->depth == 0,
                     "detach with profiling scopes still open");
  detail::t_prof_state = nullptr;
  t_prof_owner = nullptr;
}

ProfileReport Profiler::report() const {
  AMOEBA_EXPECTS_MSG(
      detail::t_prof_state == nullptr || detail::t_prof_state->depth == 0,
      "report() from inside a profiling scope");
  ProfileReport r;
  r.bucket_width_s = kBucketWidthS;
  r.wall_s = static_cast<double>(detail::prof_now_ns() - epoch_ns_) * 1e-9;
  // Accumulators hold raw clock units (TSC ticks on x86-64); measure the
  // units-per-second rate over the session against the steady clock and
  // convert once here. On the steady-clock fallback this computes ~1e-9.
  const auto raw_elapsed =
      static_cast<double>(detail::prof_now_raw() - epoch_raw_);
  const double secs_per_raw = raw_elapsed > 0.0 ? r.wall_s / raw_elapsed : 0.0;
  r.domains.assign(kDomainNames, kDomainNames + kProfDomainCount);
  r.self_s.assign(kProfDomainCount, 0.0);
  r.total_s.assign(kProfDomainCount, 0.0);
  r.count.assign(kProfDomainCount, 0);

  std::vector<std::array<double, kProfDomainCount>> dense;
  {
    common::MutexLock lock(mutex_);
    r.threads = static_cast<std::uint32_t>(states_.size());
    for (const auto& s : states_) {
      r.dropped_scopes += s->dropped_scopes;
      for (std::size_t d = 0; d < kProfDomainCount; ++d) {
        r.self_s[d] += s->totals[d].self * secs_per_raw;
        r.total_s[d] += s->totals[d].total * secs_per_raw;
        r.count[d] += s->totals[d].count;
      }
      if (dense.size() < s->buckets.size()) {
        dense.resize(s->buckets.size(), {});
      }
      for (std::size_t b = 0; b < s->buckets.size(); ++b) {
        for (std::size_t d = 0; d < kProfDomainCount; ++d) {
          dense[b][d] += s->buckets[b][d];
        }
      }
    }
  }
  for (std::size_t b = 0; b < dense.size(); ++b) {
    bool any = false;
    for (double v : dense[b]) any = any || v != 0.0;
    if (!any) continue;
    ProfileReport::Bucket row;
    row.index = static_cast<std::uint32_t>(b);
    row.sim_t0_s = static_cast<double>(b) * kBucketWidthS;
    row.self_s.resize(kProfDomainCount);
    for (std::size_t d = 0; d < kProfDomainCount; ++d) {
      row.self_s[d] = dense[b][d] * secs_per_raw;
    }
    r.buckets.push_back(std::move(row));
  }
  return r;
}

namespace {

void append_number_array(std::string& out, const std::vector<double>& xs) {
  out += '[';
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out += ',';
    out += json_number(xs[i]);
  }
  out += ']';
}

void append_count_array(std::string& out,
                        const std::vector<std::uint64_t>& xs) {
  out += '[';
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out += ',';
    out += json_number(static_cast<double>(xs[i]));
  }
  out += ']';
}

}  // namespace

void write_profile_jsonl(const ProfileReport& report, std::ostream& out) {
  AMOEBA_PROF_SCOPE(kExport);
  std::string line;
  line += R"({"type":"profile_meta","version":1,"bucket_width_s":)";
  line += json_number(report.bucket_width_s);
  line += R"(,"wall_s":)";
  line += json_number(report.wall_s);
  line += R"(,"threads":)";
  line += json_number(static_cast<double>(report.threads));
  line += R"(,"dropped_scopes":)";
  line += json_number(static_cast<double>(report.dropped_scopes));
  line += R"(,"domains":[)";
  for (std::size_t i = 0; i < report.domains.size(); ++i) {
    if (i > 0) line += ',';
    line += '"';
    line += json_escape(report.domains[i]);
    line += '"';
  }
  line += "]}\n";
  out << line;

  line.clear();
  line += R"({"type":"profile_total","self_s":)";
  append_number_array(line, report.self_s);
  line += R"(,"total_s":)";
  append_number_array(line, report.total_s);
  line += R"(,"count":)";
  append_count_array(line, report.count);
  line += "}\n";
  out << line;

  for (const auto& b : report.buckets) {
    line.clear();
    line += R"({"type":"profile_bucket","i":)";
    line += json_number(static_cast<double>(b.index));
    line += R"(,"sim_t0_s":)";
    line += json_number(b.sim_t0_s);
    line += R"(,"self_s":)";
    append_number_array(line, b.self_s);
    line += "}\n";
    out << line;
  }
}

void write_profile_chrome_trace(const ProfileReport& report,
                                std::ostream& out) {
  AMOEBA_PROF_SCOPE(kExport);
  out << "[\n";
  bool first = true;
  auto emit = [&](const std::string& event) {
    if (!first) out << ",\n";
    first = false;
    out << "  " << event;
  };
  emit(R"({"name":"process_name","ph":"M","pid":1,"tid":0,)"
       R"("args":{"name":"amoeba self-profile"}})");
  for (const auto& b : report.buckets) {
    // Counter samples at the bucket's sim-time start; values in
    // milliseconds so Perfetto's counter tracks read naturally.
    const auto ts =
        static_cast<long long>(b.sim_t0_s * 1e6);  // sim-us timestamps
    for (std::size_t d = 0; d < b.self_s.size() && d < report.domains.size();
         ++d) {
      std::string e = R"({"name":"prof:)";
      e += json_escape(report.domains[d]);
      e += R"(","ph":"C","ts":)";
      e += std::to_string(ts);
      e += R"(,"pid":1,"tid":0,"args":{"self_ms":)";
      e += json_number(b.self_s[d] * 1e3);
      e += "}}";
      emit(e);
    }
  }
  out << "\n]\n";
}

void write_profile_table(const ProfileReport& report, std::ostream& out) {
  AMOEBA_PROF_SCOPE(kExport);
  std::vector<std::size_t> order(report.domains.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (report.self_s[a] != report.self_s[b]) {
      return report.self_s[a] > report.self_s[b];
    }
    return a < b;
  });
  const double attributed = report.attributed_s();
  const double wall = report.wall_s;

  out << "self-profile (" << report.threads << " thread"
      << (report.threads == 1 ? "" : "s") << ", bucket "
      << report.bucket_width_s << " sim-s";
  if (report.dropped_scopes > 0) {
    out << ", " << report.dropped_scopes << " dropped scopes";
  }
  out << ")\n";
  out << std::left << std::setw(17) << "  domain" << std::right
      << std::setw(12) << "self_s" << std::setw(8) << "self%" << std::setw(12)
      << "total_s" << std::setw(12) << "count" << "\n";
  const std::ios::fmtflags flags = out.flags();
  out << std::fixed;
  for (std::size_t i : order) {
    if (report.count[i] == 0 && report.self_s[i] == 0.0) continue;
    const double pct = wall > 0.0 ? 100.0 * report.self_s[i] / wall : 0.0;
    out << "  " << std::left << std::setw(15) << report.domains[i]
        << std::right << std::setprecision(4) << std::setw(12)
        << report.self_s[i] << std::setprecision(1) << std::setw(7) << pct
        << "%" << std::setprecision(4) << std::setw(12) << report.total_s[i]
        << std::setw(12) << report.count[i] << "\n";
  }
  out << std::setprecision(4) << "  attributed " << attributed << " s of "
      << wall << " s wall";
  if (wall > 0.0) {
    out << " (" << std::setprecision(1) << 100.0 * attributed / wall << "%)";
  }
  out << "\n";
  out.flags(flags);
}

}  // namespace amoeba::obs
