#include "serverless/container_pool.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/profiler.hpp"

namespace amoeba::serverless {

namespace {

/// Per-function container counts are decremented on every state change;
/// a negative count means double-release bookkeeping corruption.
void check_counts(const PoolCounts& c) {
  AMOEBA_INVARIANT_VALS(c.starting >= 0 && c.idle >= 0 && c.busy >= 0,
                        c.starting, c.idle, c.busy);
}

}  // namespace

ContainerPool::ContainerPool(sim::Engine& engine, double memory_capacity_mb,
                             double keep_alive_s)
    : engine_(engine),
      memory_(engine, memory_capacity_mb),
      keep_alive_s_(keep_alive_s) {
  AMOEBA_EXPECTS(keep_alive_s > 0.0);
}

FunctionId ContainerPool::add_function() {
  functions_.push_back({{}, {}, stats::IntegratedGauge(engine_.now())});
  return static_cast<FunctionId>(functions_.size() - 1);
}

std::optional<ContainerId> ContainerPool::start(
    FunctionId function, double memory_mb, double boot_s,
    std::function<void(ContainerId)> on_ready,
    std::function<void(ContainerId)> on_failed) {
  AMOEBA_PROF_SCOPE(kServerlessPool);
  AMOEBA_EXPECTS(memory_mb > 0.0);
  AMOEBA_EXPECTS(boot_s >= 0.0);
  AMOEBA_EXPECTS(on_ready != nullptr);
  AMOEBA_EXPECTS(known(function));
  FunctionRecord& rec = record(function);
  if (!memory_.try_acquire(memory_mb)) return std::nullopt;

  bool boot_fails = false;
  if (faults_ != nullptr) {
    const sim::FaultInjector::BootFault fault = faults_->next_container_boot();
    boot_fails = fault.fail;
    boot_s *= fault.delay_multiplier;
  }

  const ContainerId id = next_id_++;
  Container c;
  c.id = id;
  c.function = function;
  c.state = ContainerState::kStarting;
  c.memory_mb = memory_mb;
  c.created_at = engine_.now();
  containers_.emplace(id, std::move(c));
  rec.counts.starting += 1;
  rec.memory.add(engine_.now(), memory_mb);
  ++cold_starts_;
  peak_total_containers_ =
      std::max(peak_total_containers_, static_cast<int>(containers_.size()));
  peak_memory_in_use_mb_ = std::max(peak_memory_in_use_mb_, memory_.in_use());

  engine_.schedule_in(boot_s, [this, id, boot_fails, cb = std::move(on_ready),
                               fb = std::move(on_failed)] {
    auto cit = containers_.find(id);
    if (cit == containers_.end()) return;  // destroyed while starting
    Container& cont = cit->second;
    AMOEBA_ASSERT(cont.state == ContainerState::kStarting);
    if (boot_fails) {
      // A failed boot held its memory for the full window; release it now.
      ++boot_failures_;
      destroy(id);
      if (fb) fb(id);
      return;
    }
    cont.state = ContainerState::kIdle;
    cont.ready_at = engine_.now();
    cont.idle_since = engine_.now();
    FunctionRecord& fr = record(cont.function);
    fr.counts.starting -= 1;
    fr.counts.idle += 1;
    check_counts(fr.counts);
    fr.idle.push_back(id);
    cont.expiry_event =
        engine_.schedule_in(keep_alive_s_, [this, id] { expire(id); });
    cb(id);
  });
  return id;
}

bool ContainerPool::memory_available(double memory_mb) const {
  return memory_.available() + 1e-9 >= memory_mb;
}

bool ContainerPool::evict_lru_idle(std::optional<FunctionId> exclude) {
  AMOEBA_PROF_SCOPE(kServerlessPool);
  // Most calls come from a saturated pool with nothing idle to give up, so
  // miss in O(#functions) before scanning every container.
  bool any_candidate = false;
  for (std::size_t i = 0; i < functions_.size() && !any_candidate; ++i) {
    any_candidate = !functions_[i].idle.empty() &&
                    static_cast<FunctionId>(i) != exclude;
  }
  if (!any_candidate) return false;
  ContainerId victim = 0;
  double oldest = std::numeric_limits<double>::infinity();
  for (const auto& [id, c] : containers_) {
    if (c.state != ContainerState::kIdle) continue;
    if (c.function == exclude) continue;
    if (c.idle_since < oldest) {
      oldest = c.idle_since;
      victim = id;
    }
  }
  if (victim == 0) return false;
  ++evictions_;
  destroy(victim);
  return true;
}

std::optional<ContainerId> ContainerPool::acquire_idle(FunctionId function) {
  // Deliberately unscoped: this is the per-invocation fast path (an index
  // lookup), and a profiler scope here would cost more than it measures.
  // Container *lifecycle* bookkeeping (start/evict/destroy/expire) carries
  // the kServerlessPool scopes.
  AMOEBA_EXPECTS(known(function));
  const std::vector<ContainerId>& idle = record(function).idle;
  if (idle.empty()) return std::nullopt;
  const ContainerId id = idle.back();
  mark_busy(id);
  return id;
}

void ContainerPool::mark_busy(ContainerId id) {
  Container& c = get_mutable(id);
  AMOEBA_EXPECTS_MSG(c.state == ContainerState::kIdle,
                     "only idle containers can take work");
  FunctionRecord& fr = record(c.function);
  std::erase(fr.idle, id);
  if (c.expiry_event != sim::kNoEvent) {
    engine_.cancel(c.expiry_event);
    c.expiry_event = sim::kNoEvent;
  }
  c.state = ContainerState::kBusy;
  ++c.invocations_served;
  fr.counts.idle -= 1;
  fr.counts.busy += 1;
  check_counts(fr.counts);
}

void ContainerPool::release_to_idle(ContainerId id) {
  // Unscoped like acquire_idle: per-invocation fast path.
  Container& c = get_mutable(id);
  AMOEBA_EXPECTS(c.state == ContainerState::kBusy);
  c.state = ContainerState::kIdle;
  c.idle_since = engine_.now();
  FunctionRecord& fr = record(c.function);
  fr.counts.busy -= 1;
  fr.counts.idle += 1;
  check_counts(fr.counts);
  fr.idle.push_back(id);
  c.expiry_event =
      engine_.schedule_in(keep_alive_s_, [this, id] { expire(id); });
}

void ContainerPool::destroy(ContainerId id) {
  AMOEBA_PROF_SCOPE(kServerlessPool);
  auto it = containers_.find(id);
  AMOEBA_EXPECTS_MSG(it != containers_.end(), "destroying unknown container");
  Container& c = it->second;
  FunctionRecord& fr = record(c.function);
  switch (c.state) {
    case ContainerState::kStarting:
      fr.counts.starting -= 1;
      break;
    case ContainerState::kIdle:
      fr.counts.idle -= 1;
      std::erase(fr.idle, id);
      break;
    case ContainerState::kBusy:
      fr.counts.busy -= 1;
      break;
  }
  check_counts(fr.counts);
  if (c.expiry_event != sim::kNoEvent) engine_.cancel(c.expiry_event);
  fr.memory.add(engine_.now(), -c.memory_mb);
  memory_.release(c.memory_mb);
  containers_.erase(it);
}

int ContainerPool::destroy_idle(FunctionId function) {
  AMOEBA_EXPECTS(known(function));
  // Destroy in ascending-id order, as a scan of containers_ would.
  std::vector<ContainerId> victims = record(function).idle;
  std::sort(victims.begin(), victims.end());
  for (ContainerId id : victims) destroy(id);
  return static_cast<int>(victims.size());
}

void ContainerPool::expire(ContainerId id) {
  AMOEBA_PROF_SCOPE(kServerlessPool);
  auto it = containers_.find(id);
  if (it == containers_.end()) return;
  if (it->second.state != ContainerState::kIdle) return;
  it->second.expiry_event = sim::kNoEvent;
  destroy(id);
}

const Container& ContainerPool::get(ContainerId id) const {
  auto it = containers_.find(id);
  AMOEBA_EXPECTS_MSG(it != containers_.end(), "unknown container id");
  return it->second;
}

Container& ContainerPool::get_mutable(ContainerId id) {
  auto it = containers_.find(id);
  AMOEBA_EXPECTS_MSG(it != containers_.end(), "unknown container id");
  return it->second;
}

PoolCounts ContainerPool::counts(FunctionId function) const {
  AMOEBA_EXPECTS(known(function));
  return record(function).counts;
}

PoolCounts ContainerPool::total_counts() const {
  PoolCounts total;
  for (const FunctionRecord& fr : functions_) {
    total.starting += fr.counts.starting;
    total.idle += fr.counts.idle;
    total.busy += fr.counts.busy;
  }
  return total;
}

int ContainerPool::headroom(double memory_mb) const {
  AMOEBA_EXPECTS(memory_mb > 0.0);
  return static_cast<int>(memory_.available() / memory_mb);
}

std::vector<ContainerId> ContainerPool::starting_ids(
    FunctionId function) const {
  AMOEBA_EXPECTS(known(function));
  std::vector<ContainerId> out;
  for (const auto& [id, c] : containers_) {
    if (c.function == function && c.state == ContainerState::kStarting) {
      out.push_back(id);
    }
  }
  return out;
}

double ContainerPool::memory_mb_seconds(FunctionId function, sim::Time now) {
  AMOEBA_EXPECTS(known(function));
  return record(function).memory.integral(now);
}

double ContainerPool::memory_in_use_mb(FunctionId function) const {
  AMOEBA_EXPECTS(known(function));
  return record(function).memory.value();
}

}  // namespace amoeba::serverless
