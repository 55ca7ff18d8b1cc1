#include "core/hybrid_engine.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace amoeba::core {

namespace {
constexpr char kSwitchCat[] = "switch";

/// Max VM boot attempts per to-IaaS switch before the switch aborts (boots
/// can fail under fault injection).
constexpr int kSwitchMaxRetries = 3;
/// Warm-set acknowledgement polling interval during a to-serverless switch,
/// and the base delay of every retry backoff.
constexpr double kPrewarmPollS = 0.25;
/// Exponential backoff base for retry delays: the k-th retry waits
/// kPrewarmPollS * kSwitchRetryBackoff^k (capped by the switch timeout).
constexpr double kSwitchRetryBackoff = 2.0;
/// After an aborted switch the service refuses new switch decisions for
/// this long, so a persistently failing platform cannot make the
/// controller flap (the runtime skips decisions while in_cooldown()).
constexpr double kAbortCooldownS = 10.0;

/// The span that brackets a switch: "switch:to_serverless" or
/// "switch:to_iaas".
std::string switch_span(DeployMode to) {
  return std::string("switch:to_") + to_string(to);
}

const HybridEngineConfig& validated(const HybridEngineConfig& cfg) {
  cfg.validate();
  return cfg;
}
}  // namespace

void HybridEngineConfig::validate() const {
  AMOEBA_EXPECTS(mirror_fraction >= 0.0 && mirror_fraction <= 1.0);
  AMOEBA_EXPECTS(switch_timeout_s > 0.0);
}

HybridExecutionEngine::HybridExecutionEngine(
    sim::Engine& engine, serverless::ServerlessPlatform& serverless,
    iaas::IaasPlatform& iaas, const workload::FunctionProfile& profile,
    iaas::VmSpec vm_spec, int serverless_max_containers,
    HybridEngineConfig cfg, sim::Rng rng, obs::Observer* observer)
    : engine_(engine),
      serverless_(serverless),
      cfg_(validated(cfg)),
      rng_(rng),
      obs_(observer),
      profile_(profile),
      max_containers_(serverless_max_containers),
      control_track_("svc:" + profile_.name + "/control"),
      vm_track_("svc:" + profile_.name + "/vm"),
      fn_(serverless.register_function(profile_, max_containers_)),
      vm_(iaas.register_service(profile_, vm_spec)) {
  // Default mode is IaaS (paper §III step 1): boot the VM now; queries that
  // arrive before it is ready wait in the boot buffer.
  boot_initial_vm(/*attempt=*/0);
}

void HybridExecutionEngine::boot_initial_vm(int attempt) {
  if (route_ != DeployMode::kIaas || switching_) return;
  if (vm_.state() != iaas::VmState::kStopped) return;
  vm_.boot(
      [this] { flush_boot_buffer(); },
      [this, attempt] {
        const double delay =
            kPrewarmPollS * std::pow(kSwitchRetryBackoff, std::min(attempt, 8));
        engine_.schedule_in(delay,
                            [this, attempt] { boot_initial_vm(attempt + 1); });
      });
}

void HybridExecutionEngine::count_switch(const char* outcome) {
  if (!metrics_on()) return;
  obs_->metrics()
      .counter(std::string("switches_") + outcome,
               {{"service", profile_.name}, {"to", to_string(target_)}})
      .inc();
}

void HybridExecutionEngine::drain_vm() {
  if (!trace_on()) {
    vm_.drain_and_stop();
    return;
  }
  obs::Tracer& tr = obs_->tracer();
  tr.begin(tr.track(vm_track_), "vm:drain", engine_.now(), kSwitchCat);
  vm_.drain_and_stop([this](bool completed) {
    obs::Tracer& t = obs_->tracer();
    t.end(t.track(vm_track_), "vm:drain", engine_.now(),
          {obs::TraceArg::of("completed", completed ? 1.0 : 0.0)});
  });
}

void HybridExecutionEngine::flush_boot_buffer() {
  while (!boot_buffer_.empty() && vm_.state() == iaas::VmState::kRunning) {
    auto cb = std::move(boot_buffer_.front());
    boot_buffer_.pop_front();
    vm_.submit(std::move(cb));
  }
}

void HybridExecutionEngine::submit(workload::QueryCompletionFn on_done) {
  if (route_ == DeployMode::kServerless) {
    serverless_.submit(fn_, std::move(on_done));
    return;
  }
  // IaaS route. Mirror a sampling share to serverless for heartbeat data.
  if (mirroring_ && cfg_.mirror_fraction > 0.0 &&
      rng_.uniform() < cfg_.mirror_fraction) {
    ++mirrored_;
    serverless_.submit(fn_, [this](const workload::QueryRecord& rec) {
      if (mirror_observer_) mirror_observer_(rec);
    });
  }
  if (vm_.state() == iaas::VmState::kRunning) {
    vm_.submit(std::move(on_done));
  } else {
    boot_buffer_.push_back(std::move(on_done));
  }
}

int HybridExecutionEngine::warm_set_size(double load_qps) const {
  const int n = cfg_.prewarm.containers_for(load_qps, profile_.qos_target_s);
  return max_containers_ > 0 ? std::min(n, max_containers_) : n;
}

void HybridExecutionEngine::maintain_warm(double load_qps) {
  if (!cfg_.enable_prewarm) return;
  if (route_ != DeployMode::kServerless || switching_) return;
  serverless_.prewarm(fn_, warm_set_size(load_qps));
}

void HybridExecutionEngine::set_qos_target(double qos_target_s) {
  AMOEBA_EXPECTS_VALS(qos_target_s > 0.0, qos_target_s);
  profile_.qos_target_s = qos_target_s;
  AMOEBA_ENSURES(profile_.qos_target_s == qos_target_s);
}

bool HybridExecutionEngine::in_cooldown() const {
  return engine_.now() < cooldown_until_;
}

int HybridExecutionEngine::available_containers() const {
  const auto counts = serverless_.counts(fn_);
  const int mem_bound =
      counts.total() + serverless_.pool().headroom(profile_.memory_mb);
  return max_containers_ > 0 ? std::min(max_containers_, mem_bound)
                             : mem_bound;
}

// --- The switch lifecycle ---------------------------------------------------

std::uint64_t HybridExecutionEngine::begin_switch(DeployMode to,
                                                  double load_qps) {
  AMOEBA_EXPECTS_MSG(!switching_, "switch already in progress");
  AMOEBA_EXPECTS_MSG(route_ != to, "already on the target platform");
  switching_ = true;
  target_ = to;
  const std::uint64_t generation = ++switch_generation_;
  switch_load_qps_ = load_qps;
  if (to == DeployMode::kServerless) {
    retired_before_switch_ = serverless_.retired(fn_);
    serverless_.unretire(fn_);
  }
  count_switch("started");
  if (trace_on()) {
    obs::Tracer& tr = obs_->tracer();
    tr.begin(tr.track(control_track_), switch_span(to), engine_.now(),
             kSwitchCat, {obs::TraceArg::of("load_qps", load_qps)});
  }
  return generation;
}

void HybridExecutionEngine::flip_route() {
  route_ = target_;
  if (trace_on()) {
    obs::Tracer& tr = obs_->tracer();
    tr.instant(tr.track(control_track_), "route_flip", engine_.now(),
               kSwitchCat);
  }
  if (route_ == DeployMode::kServerless) {
    serverless_.unretire(fn_);
    drain_vm();
  } else {
    flush_boot_buffer();
    // Shutdown signal S_sd: reclaim the containers once their in-flight
    // queries complete.
    serverless_.retire(fn_);
    if (trace_on()) {
      obs::Tracer& tr = obs_->tracer();
      tr.instant(tr.track(control_track_), "release:containers",
                 engine_.now(), kSwitchCat);
    }
  }
  end_switch(true);
}

void HybridExecutionEngine::end_switch(bool ok, obs::TraceArgs extra) {
  if (trace_on()) {
    extra.insert(extra.begin(),
                 obs::TraceArg::of("completed", ok ? 1.0 : 0.0));
    obs::Tracer& tr = obs_->tracer();
    tr.end(tr.track(control_track_), switch_span(target_), engine_.now(),
           std::move(extra));
  }
  count_switch(ok ? "completed" : "aborted");
  if (ok) {
    switch_events_.push_back({engine_.now(), target_, switch_load_qps_});
  } else {
    cooldown_until_ = engine_.now() + kAbortCooldownS;
    ++switch_aborts_;
  }
  if (switch_timeout_ != sim::kNoEvent) {
    engine_.cancel(switch_timeout_);
    switch_timeout_ = sim::kNoEvent;
  }
  switching_ = false;
}

void HybridExecutionEngine::note_retry(const char* name, obs::TraceArg arg) {
  ++switch_retries_;
  if (trace_on()) {
    obs::Tracer& tr = obs_->tracer();
    tr.instant(tr.track(control_track_), name, engine_.now(), kSwitchCat,
               {std::move(arg)});
  }
  if (metrics_on()) {
    obs_->metrics()
        .counter("switch_retries",
                 {{"service", profile_.name}, {"to", to_string(target_)}})
        .inc();
  }
}

void HybridExecutionEngine::on_switch_timeout(std::uint64_t generation) {
  if (switch_generation_ != generation || !switching_) return;
  switch_timeout_ = sim::kNoEvent;  // we are the timeout event
  if (target_ == DeployMode::kIaas) {
    abort_to_iaas();
    return;
  }
  // Supersede any poll still in flight: its generation check drops it.
  ++switch_generation_;
  // Deadline grace: if the warm set is already there (its ready events
  // sorted before this timeout at the same instant), the switch made the
  // budget — complete instead of aborting. Matches the poll path, where
  // the warm-enough check precedes the deadline check.
  if (warm_set_up()) {
    end_prewarm("ack");
    flip_route();
    return;
  }
  end_prewarm("switch_abort");
  // Graceful degradation: stay on IaaS and hand back everything the switch
  // acquired — destroy the prewarmed warm set and restore the pre-switch
  // retire state so the service's memory integral stops accruing.
  const int released = serverless_.release_prewarmed(fn_);
  if (retired_before_switch_) serverless_.retire(fn_);
  end_switch(false,
             {obs::TraceArg::of("released", static_cast<double>(released))});
}

// --- To serverless: prewarm, ack, flip, drain the VM ------------------------

void HybridExecutionEngine::switch_to_serverless(double load_qps) {
  AMOEBA_EXPECTS_VALS(load_qps >= 0.0, load_qps);
  const std::uint64_t generation =
      begin_switch(DeployMode::kServerless, load_qps);
  if (!cfg_.enable_prewarm) {
    // Amoeba-NoP: flip immediately; queries cold-start on arrival.
    flip_route();
    return;
  }
  // The same warm set maintain_warm keeps: more than n_max containers
  // could never start, and the ack would wait for them until the timeout.
  needed_ = warm_set_size(load_qps);
  // A dedicated timeout event bounds the switch: polls no longer race the
  // deadline, and a straggling poll cannot postpone the abort.
  switch_timeout_ = engine_.schedule_in(
      cfg_.switch_timeout_s,
      [this, generation] { on_switch_timeout(generation); });
  if (trace_on()) {
    obs::Tracer& tr = obs_->tracer();
    tr.begin(tr.track(control_track_), "prewarm", engine_.now(), kSwitchCat,
             {obs::TraceArg::of("needed", static_cast<double>(needed_))});
  }
  serverless_.prewarm(fn_, needed_);
  poll_prewarm(generation, /*shortfalls=*/0);
}

bool HybridExecutionEngine::warm_set_up() const {
  const auto counts = serverless_.counts(fn_);
  return counts.idle + counts.busy >= needed_;
}

void HybridExecutionEngine::end_prewarm(const char* outcome) {
  if (!trace_on()) return;
  const auto counts = serverless_.counts(fn_);
  obs::Tracer& tr = obs_->tracer();
  const auto track = tr.track(control_track_);
  tr.end(track, "prewarm", engine_.now(),
         {obs::TraceArg::of("idle", static_cast<double>(counts.idle)),
          obs::TraceArg::of("busy", static_cast<double>(counts.busy))});
  tr.instant(track, outcome, engine_.now(), kSwitchCat,
             {obs::TraceArg::of("needed", static_cast<double>(needed_))});
}

void HybridExecutionEngine::poll_prewarm(std::uint64_t generation,
                                         int shortfalls) {
  if (switch_generation_ != generation) return;  // superseded
  if (warm_set_up()) {
    end_prewarm("ack");
    flip_route();
    return;
  }
  // Keep nudging the pool: evictions/expiry may have freed memory.
  serverless_.prewarm(fn_, needed_);
  double delay = kPrewarmPollS;
  if (serverless_.counts(fn_).total() < needed_) {
    // Allocation shortfall (no memory, or injected boot failures burned
    // attempts): retry with exponential backoff so a struggling pool is not
    // hammered every poll tick. The dedicated timeout event bounds the
    // whole affair; healthy switches keep the plain poll cadence.
    ++shortfalls;
    delay = std::min(
        kPrewarmPollS * std::pow(kSwitchRetryBackoff, shortfalls),
        cfg_.switch_timeout_s);
    note_retry("prewarm_retry", obs::TraceArg::of(
                                    "shortfalls",
                                    static_cast<double>(shortfalls)));
  } else {
    shortfalls = 0;
  }
  engine_.schedule_in(delay, [this, generation, shortfalls] {
    poll_prewarm(generation, shortfalls);
  });
}

// --- To IaaS: boot the VM, ack, flip, retire the containers -----------------

void HybridExecutionEngine::switch_to_iaas(double load_qps) {
  AMOEBA_EXPECTS_VALS(load_qps >= 0.0, load_qps);
  const std::uint64_t generation = begin_switch(DeployMode::kIaas, load_qps);
  // Boot first, then arm the timeout: a boot completing exactly at the
  // deadline was scheduled earlier and so fires first (FIFO tie-break),
  // letting an on-budget switch win the tie and cancel the timeout.
  start_vm_boot(generation, /*attempt=*/0);
  switch_timeout_ = engine_.schedule_in(
      cfg_.switch_timeout_s,
      [this, generation] { on_switch_timeout(generation); });
}

void HybridExecutionEngine::start_vm_boot(std::uint64_t generation,
                                          int attempt) {
  if (switch_generation_ != generation || !switching_) return;
  vm_.boot(
      [this, generation] { on_vm_ready(generation); },
      [this, generation, attempt] { on_vm_boot_failed(generation, attempt); });
  // Emitted after vm_.boot so a cancelled drain's "vm:drain" end (fired
  // inline by boot()) lands before this begin — sync spans per track are a
  // stack and must stay balanced.
  if (trace_on()) {
    obs::Tracer& tr = obs_->tracer();
    tr.begin(tr.track(vm_track_), "vm:boot", engine_.now(), kSwitchCat,
             {obs::TraceArg::of("attempt", static_cast<double>(attempt))});
  }
}

void HybridExecutionEngine::on_vm_ready(std::uint64_t generation) {
  if (switch_generation_ != generation || !switching_) {
    // Stale ack: the switch aborted while this boot was still in flight.
    // Defensively put the VM back down (the abort path already stopped a
    // kBooting VM, so this is belt-and-braces for future boot semantics).
    vm_.drain_and_stop();
    return;
  }
  if (trace_on()) {
    obs::Tracer& tr = obs_->tracer();
    tr.end(tr.track(vm_track_), "vm:boot", engine_.now());
    tr.instant(tr.track(control_track_), "ack", engine_.now(), kSwitchCat);
  }
  flip_route();
}

void HybridExecutionEngine::on_vm_boot_failed(std::uint64_t generation,
                                              int attempt) {
  if (switch_generation_ != generation || !switching_) return;
  if (trace_on()) {
    obs::Tracer& tr = obs_->tracer();
    tr.end(tr.track(vm_track_), "vm:boot", engine_.now(),
           {obs::TraceArg::of("completed", 0.0)});
  }
  if (metrics_on()) {
    obs_->metrics()
        .counter("vm_boot_failures", {{"service", profile_.name}})
        .inc();
  }
  if (attempt + 1 >= kSwitchMaxRetries) {
    abort_to_iaas();
    return;
  }
  note_retry("boot_retry",
             obs::TraceArg::of("attempt", static_cast<double>(attempt + 1)));
  const double delay = kPrewarmPollS * std::pow(kSwitchRetryBackoff, attempt);
  engine_.schedule_in(delay, [this, generation, attempt] {
    start_vm_boot(generation, attempt + 1);
  });
}

void HybridExecutionEngine::abort_to_iaas() {
  // Supersede pending boots/retries, then stand down: the service stays on
  // serverless (its containers keep serving) and the controller re-decides
  // after the cooldown.
  ++switch_generation_;
  if (vm_.state() == iaas::VmState::kBooting) {
    vm_.drain_and_stop();  // aborts the in-flight boot outright
    if (trace_on()) {
      obs::Tracer& tr = obs_->tracer();
      tr.end(tr.track(vm_track_), "vm:boot", engine_.now(),
             {obs::TraceArg::of("completed", 0.0)});
    }
  }
  if (trace_on()) {
    obs::Tracer& tr = obs_->tracer();
    tr.instant(tr.track(control_track_), "switch_abort", engine_.now(),
               kSwitchCat);
  }
  end_switch(false);
}

}  // namespace amoeba::core
