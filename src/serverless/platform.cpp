#include "serverless/platform.hpp"

#include <algorithm>
#include <utility>

namespace amoeba::serverless {

void PlatformConfig::validate() const {
  AMOEBA_EXPECTS(cores > 0.0);
  AMOEBA_EXPECTS(pool_memory_mb > 0.0);
  AMOEBA_EXPECTS(disk_bps > 0.0);
  AMOEBA_EXPECTS(net_bps > 0.0);
  AMOEBA_EXPECTS(container_core_cap > 0.0);
  AMOEBA_EXPECTS(cpu_interference >= 0.0);
  AMOEBA_EXPECTS(io_efficiency > 0.0 && io_efficiency <= 1.0);
  AMOEBA_EXPECTS(cold_start_mean_s >= 0.0);
  AMOEBA_EXPECTS(cold_start_cv >= 0.0);
  AMOEBA_EXPECTS(keep_alive_s > 0.0);
  AMOEBA_EXPECTS(crash_after_completion_p >= 0.0 &&
                 crash_after_completion_p <= 1.0);
}

ServerlessPlatform::ServerlessPlatform(sim::Engine& engine, PlatformConfig cfg,
                                       sim::Rng rng)
    : engine_(engine),
      cfg_(cfg),
      rng_(rng),
      cpu_(engine, cfg.cores, cfg.cpu_interference),
      disk_(engine, cfg.disk_bps),
      net_(engine, cfg.net_bps),
      pool_(engine, cfg.pool_memory_mb, cfg.keep_alive_s),
      runner_(engine, [this](workload::PhaseRunner::Query& q) {
        finish_invocation(q);
      }) {
  cfg_.validate();
}

FunctionId ServerlessPlatform::register_function(
    const workload::FunctionProfile& profile, int max_containers) {
  profile.validate();
  AMOEBA_EXPECTS(max_containers >= 0);
  AMOEBA_EXPECTS_MSG(!ids_by_name_.contains(profile.name),
                     "function already registered");
  const FunctionId id = pool_.add_function();
  AMOEBA_ASSERT(static_cast<std::size_t>(id) == functions_.size());
  FunctionState st;
  st.id = id;
  st.profile = profile;
  st.max_containers = max_containers;
  functions_.push_back(std::move(st));
  ids_by_name_.emplace(profile.name, id);
  return id;
}

std::optional<FunctionId> ServerlessPlatform::find_function(
    const std::string& name) const {
  const auto it = ids_by_name_.find(name);
  if (it == ids_by_name_.end()) return std::nullopt;
  return it->second;
}

void ServerlessPlatform::trace_container(FunctionId fn, ContainerId cid,
                                         bool begin) {
  if (obs_ == nullptr || !obs_->trace_on()) return;
  amoeba::obs::Tracer& tr = obs_->tracer();
  const auto track = tr.track("svc:" + record(fn).profile.name + "/pool");
  if (begin) {
    tr.async_begin(track, "container_boot", cid, engine_.now(), "pool");
  } else {
    tr.async_end(track, "container_boot", cid, engine_.now(), "pool");
  }
}

void ServerlessPlatform::submit(FunctionId fn,
                                workload::QueryCompletionFn on_done) {
  AMOEBA_EXPECTS(on_done != nullptr);
  AMOEBA_EXPECTS(known(fn));
  FunctionState& st = record(fn);
  st.stats.submitted += 1;
  st.queue.push_back(Pending{next_query_id_++, engine_.now(), std::move(on_done)});
  pump(fn);
}

double ServerlessPlatform::sample_cold_start() {
  if (cfg_.cold_start_mean_s <= 0.0) return 0.0;
  return rng_.lognormal_mean_cv(cfg_.cold_start_mean_s, cfg_.cold_start_cv);
}

bool ServerlessPlatform::try_make_room(FunctionState& st) {
  if (st.max_containers > 0 &&
      pool_.counts(st.id).total() >= st.max_containers) {
    return false;
  }
  if (pool_.memory_available(st.profile.memory_mb)) return true;
  // Reclaim idle capacity parked by other functions.
  while (pool_.evict_lru_idle(st.id)) {
    if (pool_.memory_available(st.profile.memory_mb)) return true;
  }
  return false;
}

std::optional<ContainerId> ServerlessPlatform::start_container(
    FunctionState& st) {
  const FunctionId fn = st.id;
  const auto cid = pool_.start(
      fn, st.profile.memory_mb, sample_cold_start(),
      [this, fn](ContainerId id) { on_container_ready(fn, id); },
      [this, fn](ContainerId id) { on_container_failed(fn, id); });
  if (cid.has_value()) trace_container(fn, *cid, /*begin=*/true);
  return cid;
}

int ServerlessPlatform::prewarm(FunctionId fn, int count) {
  AMOEBA_EXPECTS(count >= 0);
  AMOEBA_EXPECTS(known(fn));
  FunctionState& st = record(fn);
  int started = 0;
  while (pool_.counts(fn).total() < count) {
    if (!try_make_room(st)) break;
    if (!start_container(st).has_value()) break;
    ++started;
  }
  // Anything still missing was denied admission (pool memory or n_max):
  // count each denied container so cluster runs can report how often the
  // shared-pool arbitration actually bit.
  const int missing = count - pool_.counts(fn).total();
  if (missing > 0) {
    st.stats.prewarm_denied += static_cast<std::uint64_t>(missing);
  }
  return started;
}

void ServerlessPlatform::pump(FunctionId fn) {
  FunctionState& st = record(fn);
  while (!st.queue.empty()) {
    if (auto cid = pool_.acquire_idle(fn)) {
      Pending p = std::move(st.queue.front());
      st.queue.pop_front();
      run_invocation(st, *cid, std::move(p));
      continue;
    }
    // No warm container: cold-start one and BIND the head-of-line query to
    // it (OpenWhisk semantics — the activation waits out the boot it
    // caused). Remaining queries stay queued for whichever container frees
    // or boots next.
    if (!try_make_room(st)) break;
    const auto cid = start_container(st);
    if (!cid.has_value()) break;
    Bound& slot = bound_slot(*cid);
    AMOEBA_ASSERT(slot.container == 0);
    slot.container = *cid;
    slot.pending = std::move(st.queue.front());
    st.queue.pop_front();
  }
}

ServerlessPlatform::Bound& ServerlessPlatform::bound_slot(ContainerId cid) {
  const std::size_t row = pool_.row(cid);
  if (row >= bound_.size()) bound_.resize(row + 1);
  return bound_[row];
}

std::optional<ServerlessPlatform::Pending> ServerlessPlatform::take_bound(
    ContainerId cid) {
  Bound& slot = bound_slot(cid);
  if (slot.container != cid) return std::nullopt;
  slot.container = 0;
  return std::move(slot.pending);
}

void ServerlessPlatform::on_container_ready(FunctionId fn, ContainerId cid) {
  trace_container(fn, cid, /*begin=*/false);
  FunctionState& st = record(fn);
  if (std::optional<Pending> p = take_bound(cid)) {
    pool_.mark_busy(cid);
    run_invocation(st, cid, std::move(*p));
    return;
  }
  pump(fn);
}

void ServerlessPlatform::on_container_failed(FunctionId fn, ContainerId cid) {
  trace_container(fn, cid, /*begin=*/false);
  FunctionState& st = record(fn);
  st.stats.boot_failures += 1;
  if (obs_ != nullptr && obs_->metrics_on()) {
    obs_->metrics()
        .counter("container_boot_failures", {{"function", st.profile.name}})
        .inc();
  }
  // A query bound to the failed container (OpenWhisk semantics) is rescued
  // to the head of the queue so it keeps its FIFO position; the re-pump
  // below cold-starts a fresh container for it.
  if (std::optional<Pending> p = take_bound(cid)) {
    st.queue.push_front(std::move(*p));
  }
  pump(fn);
}

void ServerlessPlatform::run_invocation(FunctionState& st, ContainerId cid,
                                        Pending pending) {
  const workload::FunctionProfile& p = st.profile;
  workload::PhaseRunner::Query q;
  workload::QueryRecord& rec = q.record;
  rec.id = pending.id;
  rec.arrival = pending.arrival;

  // Attribute the wait between arrival and service start: any overlap with
  // the serving container's boot window counts as cold start (Fig. 4 /
  // Fig. 16 bookkeeping), the rest is queueing.
  const Container& cont = pool_.get(cid);
  const double wait = engine_.now() - pending.arrival;
  if (cont.invocations_served == 1) {  // first use (mark_busy already counted)
    const double boot_overlap =
        std::clamp(cont.ready_at - std::max(pending.arrival, cont.created_at),
                   0.0, wait);
    // "Cold" means the query actually waited on the boot; a query served by
    // a prewarmed container that was ready before it arrived is warm.
    rec.cold = boot_overlap > 0.0;
    if (rec.cold) st.stats.cold_hits += 1;
    rec.breakdown.cold_start_s = boot_overlap;
    rec.breakdown.queue_s = wait - boot_overlap;
  } else {
    rec.breakdown.queue_s = wait;
  }

  rec.cpu_work_done =
      p.exec.cpu_seconds > 0.0
          ? rng_.lognormal_mean_cv(p.exec.cpu_seconds, p.cpu_cv)
          : 0.0;
  // Containerized IO moves more effective "device work" per byte
  // (overlay-fs / virtualization tax).
  const double io_scale = 1.0 / cfg_.io_efficiency;
  using workload::LatencyBreakdown;
  q.phases = {{
      {&disk_, p.code_bytes * io_scale, 0.0, &LatencyBreakdown::code_load_s},
      {&cpu_, rec.cpu_work_done, cfg_.container_core_cap,
       &LatencyBreakdown::exec_s},
      {&disk_, p.exec.io_bytes * io_scale, 0.0, &LatencyBreakdown::exec_s},
      {&net_, p.exec.net_bytes, 0.0, &LatencyBreakdown::exec_s},
      {&net_, p.result_bytes, 0.0, &LatencyBreakdown::post_s},
  }};
  // Fixed platform processing overhead (auth + scheduling) comes first.
  rec.breakdown.overhead_s = p.platform_overhead_s;
  q.on_done = std::move(pending.on_done);
  // Every phase's stream carries the function's id, attributing its demand.
  q.tag = static_cast<sim::StreamTag>(st.id);
  q.key = cid;
  runner_.start(std::move(q));
}

void ServerlessPlatform::finish_invocation(workload::PhaseRunner::Query& q) {
  const auto fn = static_cast<FunctionId>(q.tag);
  const ContainerId cid = q.key;
  FunctionState& st = record(fn);
  st.stats.completed += 1;
  st.stats.cpu_core_seconds += q.record.cpu_work_done;

  const bool crash = cfg_.crash_after_completion_p > 0.0 &&
                     rng_.uniform() < cfg_.crash_after_completion_p;
  if (crash || (st.retired && st.queue.empty())) {
    pool_.destroy(cid);
  } else {
    pool_.release_to_idle(cid);
  }
  q.on_done(q.record);
  pump(fn);
}

void ServerlessPlatform::retire(FunctionId fn) {
  AMOEBA_EXPECTS(known(fn));
  record(fn).retired = true;
  pool_.destroy_idle(fn);
}

void ServerlessPlatform::unretire(FunctionId fn) {
  AMOEBA_EXPECTS(known(fn));
  record(fn).retired = false;
}

bool ServerlessPlatform::retired(FunctionId fn) const {
  AMOEBA_EXPECTS(known(fn));
  return record(fn).retired;
}

int ServerlessPlatform::release_prewarmed(FunctionId fn) {
  AMOEBA_EXPECTS(known(fn));
  int destroyed = pool_.destroy_idle(fn);
  for (ContainerId cid : pool_.starting_ids(fn)) {
    if (bound_slot(cid).container == cid) continue;  // owed to its query
    // The boot's async trace span would otherwise dangle: its completion
    // event self-cancels on destroy, so end the span here.
    trace_container(fn, cid, /*begin=*/false);
    pool_.destroy(cid);
    ++destroyed;
  }
  return destroyed;
}

const FunctionStats& ServerlessPlatform::stats(FunctionId fn) const {
  AMOEBA_EXPECTS(known(fn));
  return record(fn).stats;
}

double ServerlessPlatform::cpu_core_seconds(FunctionId fn) const {
  AMOEBA_EXPECTS(known(fn));
  return record(fn).stats.cpu_core_seconds;
}

double ServerlessPlatform::memory_mb_seconds(FunctionId fn, sim::Time now) {
  AMOEBA_EXPECTS(known(fn));
  return pool_.memory_mb_seconds(fn, now);
}

std::array<double, 3> ServerlessPlatform::true_pressure_of(
    FunctionId fn) const {
  AMOEBA_EXPECTS(known(fn));
  const auto tag = static_cast<sim::StreamTag>(fn);
  return {cpu_.pressure_of(tag), disk_.pressure_of(tag),
          net_.pressure_of(tag)};
}

std::array<double, 3> ServerlessPlatform::true_external_pressure(
    FunctionId fn) const {
  AMOEBA_EXPECTS(known(fn));
  const auto tag = static_cast<sim::StreamTag>(fn);
  return {cpu_.external_pressure(tag), disk_.external_pressure(tag),
          net_.external_pressure(tag)};
}

}  // namespace amoeba::serverless
