#include "core/amoeba.hpp"

#include <algorithm>
#include <utility>

#include "core/queueing.hpp"
#include "obs/profiler.hpp"

namespace amoeba::core {

AmoebaRuntime::AmoebaRuntime(sim::Engine& engine,
                             serverless::ServerlessPlatform& serverless,
                             iaas::IaasPlatform& iaas,
                             MeterCalibration calibration,
                             const workload::FunctionProfile& profile,
                             iaas::VmSpec vm_spec, ServiceArtifacts artifacts,
                             int serverless_max_containers, AmoebaConfig cfg,
                             sim::Rng rng)
    : engine_(engine),
      serverless_(serverless),
      cfg_(cfg),
      name_(profile.name),
      obs_(cfg.observer),
      controller_(cfg.controller, profile.qos_target_s, std::move(artifacts),
                  cfg.estimator),
      monitor_(engine, serverless, std::move(calibration), cfg.monitor,
               rng.fork(12)),
      exec_engine_(engine, serverless, iaas, profile, vm_spec,
                   serverless_max_containers, cfg.engine, rng.fork(11),
                   obs_),
      load_(cfg.load_window_s) {
  AMOEBA_EXPECTS(cfg.load_window_s > 0.0);
  monitor_.set_observer(obs_);
  monitor_.set_fault_injector(cfg.fault_injector);
  // Mirrored (and resident-sampled) completions feed the controller's
  // weight calibration with queue-free service times.
  exec_engine_.set_mirror_observer(
      [this](const workload::QueryRecord& rec) { observe_service_time(rec); });
}

void AmoebaRuntime::observe_service_time(const workload::QueryRecord& rec) {
  const double service_time = rec.breakdown.service_s();
  if (service_time <= 0.0) return;
  controller_.observe_latency(
      measured_load(), monitor_.pressures(), service_time,
      exec_engine_.route() == DeployMode::kServerless);
}

ServiceUsage AmoebaRuntime::usage(double now) const {
  return service_usage(&exec_engine_.vm(), serverless_,
                       exec_engine_.function(), now);
}

double AmoebaRuntime::timeline_period() const {
  if (cfg_.timeline_period_s == 0.0) return monitor_.sample_period();
  return cfg_.timeline_period_s;
}

void AmoebaRuntime::start() {
  AMOEBA_EXPECTS(!started_);
  started_ = true;
  monitor_.set_on_sample([this] { on_sample(); });
  monitor_.start();
  if (timeline_period() > 0.0) {
    sample_timelines();
  }
}

void AmoebaRuntime::stop() {
  if (!started_) return;
  started_ = false;
  monitor_.stop();
  if (timeline_event_ != sim::kNoEvent) {
    engine_.cancel(timeline_event_);
    timeline_event_ = sim::kNoEvent;
  }
  if (obs_ != nullptr && obs_->metrics_on()) {
    obs_->metrics().take_snapshot(engine_.now());
  }
}

void AmoebaRuntime::submit(workload::QueryCompletionFn on_done) {
  load_.record(engine_.now());
  std::uint32_t slot = 0;
  if (free_queries_.empty()) {
    slot = static_cast<std::uint32_t>(queries_.size());
    queries_.emplace_back();
  } else {
    slot = free_queries_.back();
    free_queries_.pop_back();
  }
  // Platform attribution is fixed at submission: a query in flight across a
  // route flip still belongs to the platform that accepted it.
  queries_[slot] = PendingQuery{exec_engine_.route(), std::move(on_done)};
  exec_engine_.submit([this, slot](const workload::QueryRecord& rec) {
    on_query_done(slot, rec);
  });
}

void AmoebaRuntime::on_query_done(std::uint32_t slot,
                                  const workload::QueryRecord& rec) {
  // Free the slot before the caller's callback runs: it may submit again.
  const DeployMode platform = queries_[slot].platform;
  const workload::QueryCompletionFn done =
      std::exchange(queries_[slot].done, nullptr);
  free_queries_.push_back(slot);
  // Deliberately no kStats scope here: this runs per query and the
  // latency add is cheaper than a profiler scope pair. The periodic
  // on_sample stats work carries the kStats scope.
  period_latencies_.add(rec.latency());
  if (obs_ != nullptr && obs_->enabled()) {
    record_query(rec, platform);
  }
  // In serverless mode every user query doubles as a heartbeat.
  if (exec_engine_.route() == DeployMode::kServerless) {
    observe_service_time(rec);
  }
  done(rec);
}

double AmoebaRuntime::measured_load() const {
  return load_.rate(engine_.now());
}

void AmoebaRuntime::set_qos_target(double qos_target_s) {
  AMOEBA_EXPECTS_VALS(qos_target_s > 0.0, qos_target_s);
  controller_.set_qos_target(qos_target_s);
  // The engine keeps its own profile copy for Eq. 7 warm-set sizing.
  exec_engine_.set_qos_target(qos_target_s);
  AMOEBA_ENSURES(controller_.qos_target() == qos_target_s);
}

void AmoebaRuntime::on_sample() {
  AMOEBA_PROF_SCOPE(kController);
  const auto pressures = monitor_.pressures();
  // Pre-switch sampling has served its purpose once the weights are
  // calibrated; keeping shadow containers alive would waste the very
  // memory Amoeba is trying to save.
  if (exec_engine_.mirroring() && controller_.estimator().calibrated()) {
    exec_engine_.set_mirroring(false);
  }
  if (exec_engine_.transitioning() || exec_engine_.in_cooldown()) {
    const bool transitioning = exec_engine_.transitioning();
    period_latencies_.clear();
    // Post-abort cooldown: no new decision, but the warm set still tracks
    // the load so a serverless-resident service keeps absorbing bursts.
    if (!transitioning && exec_engine_.route() == DeployMode::kServerless) {
      exec_engine_.maintain_warm(load_.rate(engine_.now()));
    }
    // Even ticks spent mid-switch (or cooling down after an aborted one)
    // leave an audit record: every monitor sample accounts for the
    // service.
    if (obs_ != nullptr && obs_->audit_on()) {
      obs_->audit().append(
          decision_record(transitioning ? "transitioning" : "cooldown",
                          load_.rate(engine_.now()), pressures));
    }
  } else {
    ServiceTickInput input;
    input.mode = exec_engine_.route();
    input.load_qps = load_.rate(engine_.now());
    input.total_pressures = pressures;
    input.available_containers = exec_engine_.available_containers();
    // Forecast rising load over the switch horizon (Amoeba must start the
    // VM boot before the serverless pool saturates).
    input.forecast_load_qps = input.load_qps;
    if (cfg_.load_anticipation_s > 0.0 && has_prev_load_) {
      const double slope =
          (input.load_qps - prev_tick_load_) / monitor_.sample_period();
      if (slope > 0.0) {
        input.forecast_load_qps =
            input.load_qps + slope * cfg_.load_anticipation_s;
      }
    }
    prev_tick_load_ = input.load_qps;
    has_prev_load_ = true;
    // Eq. 8's intent in sample-count form: with fewer than 21 samples a
    // single accidental cold start owns the 95th percentile and would
    // misjudge a healthy deployment (the paper's §VI-B scenario), so the
    // observed-latency backstop stays quiet until the window is dense
    // enough that one outlier cannot cross it alone.
    if (period_latencies_.size() >= 21) {
      input.observed_p95 = period_latencies_.quantile(0.95);
    }
    period_latencies_.clear();

    const SwitchDecision decision = controller_.tick(input);
    if (obs_ != nullptr && obs_->enabled()) {
      record_decision(input, decision);
    }
    switch (decision) {
      case SwitchDecision::kStay:
        // §V-A: while serverless, keep the Eq. 7 warm set tracking the load
        // so bursts land on warm containers instead of cold starts.
        exec_engine_.maintain_warm(input.load_qps);
        break;
      case SwitchDecision::kSwitchToServerless:
        exec_engine_.switch_to_serverless(input.load_qps);
        break;
      case SwitchDecision::kSwitchToIaas:
        exec_engine_.switch_to_iaas(input.load_qps);
        break;
    }
  }
  if (obs_ != nullptr && obs_->metrics_on()) {
    AMOEBA_PROF_SCOPE(kStats);
    obs::MetricsRegistry& m = obs_->metrics();
    m.gauge("pool_memory_in_use_mb").set(serverless_.pool().memory_in_use_mb());
    m.gauge("pool_cold_starts_total")
        .set(static_cast<double>(serverless_.pool().cold_starts()));
    m.gauge("pool_evictions_total")
        .set(static_cast<double>(serverless_.pool().evictions()));
    m.gauge("mirrored_queries_total")
        .set(static_cast<double>(exec_engine_.mirrored_queries()));
    m.take_snapshot(engine_.now());
  }
}

obs::DecisionRecord AmoebaRuntime::decision_record(
    const char* decision, double load_qps,
    const std::array<double, kNumResources>& total_pressures) const {
  obs::DecisionRecord dr;
  dr.time_s = engine_.now();
  dr.service = name_;
  dr.platform = to_string(exec_engine_.route());
  dr.decision = decision;
  dr.load_qps = load_qps;
  dr.total_pressures = total_pressures;
  dr.qos_target_s = controller_.qos_target();
  dr.stage = cfg_.stage_id;
  return dr;
}

void AmoebaRuntime::record_decision(const ServiceTickInput& input,
                                    SwitchDecision decision) {
  const double now = engine_.now();
  const double qos = controller_.qos_target();
  if (obs_->audit_on()) {
    obs::DecisionRecord dr = decision_record(
        to_string(decision), input.load_qps, input.total_pressures);
    dr.forecast_load_qps = input.forecast_load_qps;
    dr.n_containers = std::max(1, input.available_containers);
    dr.prewarm_target =
        cfg_.engine.prewarm.containers_for(input.load_qps, qos);
    dr.votes_to_serverless = controller_.votes_to_serverless();
    dr.votes_to_iaas = controller_.votes_to_iaas();
    dr.observed_p95_s = input.observed_p95;
    if (const auto& ev = controller_.last_evaluation()) {
      dr.external_pressures = ev->external_pressures;
      dr.features = ev->features;
      dr.mu = ev->mu;
      dr.lambda_max = ev->lambda_max;
      dr.weights = controller_.estimator().weights();
      if (ev->mu > 0.0) {
        dr.predicted_service_s = 1.0 / ev->mu;
        const int n = dr.n_containers;
        // Re-derive the Eq. 5 fixed-point trajectory at the tick's
        // operating point — the path the discriminant walked, not just
        // where it landed.
        (void)queueing::eq5_lambda(n, ev->mu, qos, kQosPercentile, 200,
                                   &dr.lambda_iterates);
        if (input.load_qps > 0.0 &&
            queueing::rho(input.load_qps, n, ev->mu) < 1.0) {
          dr.predicted_p95_s =
              queueing::latency_quantile(input.load_qps, n, ev->mu,
                                         kQosPercentile);
        }
      }
    }
    obs_->audit().append(std::move(dr));
  }
  if (obs_->metrics_on()) {
    obs::MetricsRegistry& m = obs_->metrics();
    m.counter("decisions",
              {{"service", name_}, {"decision", to_string(decision)}})
        .inc();
    m.gauge("load_qps", {{"service", name_}}).set(input.load_qps);
    m.gauge("mode", {{"service", name_}})
        .set(exec_engine_.route() == DeployMode::kServerless ? 1.0 : 0.0);
    m.gauge("available_containers", {{"service", name_}})
        .set(input.available_containers);
    if (input.observed_p95) {
      m.gauge("observed_p95_s", {{"service", name_}}).set(*input.observed_p95);
    }
  }
  if (obs_->trace_on()) {
    obs::Tracer& tr = obs_->tracer();
    const auto control = tr.track("svc:" + name_ + "/control");
    tr.instant(control, "decision", now, "control",
               {obs::TraceArg::of("decision", std::string(to_string(decision))),
                obs::TraceArg::of("load_qps", input.load_qps)});
    tr.counter(tr.track("svc:" + name_ + "/load"), "load_qps", now,
               input.load_qps);
  }
}

void AmoebaRuntime::record_query(const workload::QueryRecord& rec,
                                 DeployMode platform) {
  if (obs_->metrics_on()) {
    obs::MetricsRegistry& m = obs_->metrics();
    m.counter("queries", {{"service", name_}}).inc();
    if (rec.cold) m.counter("cold_starts", {{"service", name_}}).inc();
    m.histogram("latency_s", {{"service", name_}}).observe(rec.latency());
    m.histogram("queue_wait_s", {{"service", name_}})
        .observe(rec.breakdown.queue_s);
  }
  if (obs_->trace_on()) {
    obs::Tracer& tr = obs_->tracer();
    const auto track = tr.track("svc:" + name_ + "/queries");
    const std::uint64_t id = next_query_span_id_++;
    const double service_s = rec.breakdown.service_s();
    tr.async_begin(track, "query", id, rec.arrival, "query");
    tr.async_end(track, "query", id, rec.completion, "query",
                 {obs::TraceArg::of("platform", std::string(to_string(platform))),
                  obs::TraceArg::of("latency_s", rec.latency()),
                  obs::TraceArg::of("queue_s", rec.breakdown.queue_s),
                  obs::TraceArg::of("cold_start_s", rec.breakdown.cold_start_s),
                  obs::TraceArg::of("service_s", service_s),
                  obs::TraceArg::of("cold", rec.cold ? 1.0 : 0.0)});
  }
}

void AmoebaRuntime::sample_timelines() {
  const double now = engine_.now();
  const ServiceUsage u = usage(now);
  timeline_.load_qps.add(now, load_.rate(now));
  timeline_.mode.add(
      now, exec_engine_.route() == DeployMode::kServerless ? 1.0 : 0.0);
  timeline_.cpu_core_seconds.add(now, u.cpu_core_seconds);
  timeline_.memory_mb_seconds.add(now, u.memory_mb_seconds);
  timeline_event_ = engine_.schedule_in(timeline_period(),
                                        [this] { sample_timelines(); });
}

}  // namespace amoeba::core
