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
      memory_(engine, "pool_memory", memory_capacity_mb),
      keep_alive_s_(keep_alive_s) {
  AMOEBA_EXPECTS(keep_alive_s > 0.0);
}

std::optional<ContainerId> ContainerPool::start(
    const std::string& function, double memory_mb, double boot_s,
    std::function<void(ContainerId)> on_ready,
    std::function<void(ContainerId)> on_failed) {
  AMOEBA_PROF_SCOPE(kServerlessPool);
  AMOEBA_EXPECTS(memory_mb > 0.0);
  AMOEBA_EXPECTS(boot_s >= 0.0);
  AMOEBA_EXPECTS(on_ready != nullptr);
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
  counts_by_fn_[function].starting += 1;
  auto [it, inserted] = mem_gauge_by_fn_.try_emplace(
      function, stats::IntegratedGauge(engine_.now()));
  it->second.add(engine_.now(), memory_mb);
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
    counts_by_fn_[cont.function].starting -= 1;
    counts_by_fn_[cont.function].idle += 1;
    check_counts(counts_by_fn_[cont.function]);
    idle_by_fn_[cont.function].push_back(id);
    cont.expiry_event =
        engine_.schedule_in(keep_alive_s_, [this, id] { expire(id); });
    cb(id);
  });
  return id;
}

bool ContainerPool::memory_available(double memory_mb) const {
  return memory_.available() + 1e-9 >= memory_mb;
}

bool ContainerPool::evict_lru_idle(const std::string& exclude_function) {
  AMOEBA_PROF_SCOPE(kServerlessPool);
  // Most calls come from a saturated pool with nothing idle to give up, so
  // miss in O(#functions) before scanning every container.
  const bool any_candidate =
      std::any_of(idle_by_fn_.begin(), idle_by_fn_.end(), [&](const auto& kv) {
        return !kv.second.empty() &&
               (exclude_function.empty() || kv.first != exclude_function);
      });
  if (!any_candidate) return false;
  ContainerId victim = 0;
  double oldest = std::numeric_limits<double>::infinity();
  for (const auto& [id, c] : containers_) {
    if (c.state != ContainerState::kIdle) continue;
    if (!exclude_function.empty() && c.function == exclude_function) continue;
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

std::optional<ContainerId> ContainerPool::acquire_idle(
    const std::string& function) {
  // Deliberately unscoped: this is the per-invocation fast path (a map
  // lookup), and a profiler scope here would cost more than it measures.
  // Container *lifecycle* bookkeeping (start/evict/destroy/expire) carries
  // the kServerlessPool scopes.
  auto it = idle_by_fn_.find(function);
  if (it == idle_by_fn_.end() || it->second.empty()) return std::nullopt;
  const ContainerId id = it->second.back();
  mark_busy(id);
  return id;
}

void ContainerPool::mark_busy(ContainerId id) {
  Container& c = get_mutable(id);
  AMOEBA_EXPECTS_MSG(c.state == ContainerState::kIdle,
                     "only idle containers can take work");
  auto& idles = idle_by_fn_[c.function];
  idles.erase(std::remove(idles.begin(), idles.end(), id), idles.end());
  if (c.expiry_event != sim::kNoEvent) {
    engine_.cancel(c.expiry_event);
    c.expiry_event = sim::kNoEvent;
  }
  c.state = ContainerState::kBusy;
  ++c.invocations_served;
  counts_by_fn_[c.function].idle -= 1;
  counts_by_fn_[c.function].busy += 1;
  check_counts(counts_by_fn_[c.function]);
}

void ContainerPool::release_to_idle(ContainerId id) {
  // Unscoped like acquire_idle: per-invocation fast path.
  Container& c = get_mutable(id);
  AMOEBA_EXPECTS(c.state == ContainerState::kBusy);
  c.state = ContainerState::kIdle;
  c.idle_since = engine_.now();
  counts_by_fn_[c.function].busy -= 1;
  counts_by_fn_[c.function].idle += 1;
  check_counts(counts_by_fn_[c.function]);
  idle_by_fn_[c.function].push_back(id);
  c.expiry_event =
      engine_.schedule_in(keep_alive_s_, [this, id] { expire(id); });
}

void ContainerPool::destroy(ContainerId id) {
  AMOEBA_PROF_SCOPE(kServerlessPool);
  auto it = containers_.find(id);
  AMOEBA_EXPECTS_MSG(it != containers_.end(), "destroying unknown container");
  Container& c = it->second;
  switch (c.state) {
    case ContainerState::kStarting:
      counts_by_fn_[c.function].starting -= 1;
      break;
    case ContainerState::kIdle: {
      counts_by_fn_[c.function].idle -= 1;
      auto& idles = idle_by_fn_[c.function];
      idles.erase(std::remove(idles.begin(), idles.end(), id), idles.end());
      break;
    }
    case ContainerState::kBusy:
      counts_by_fn_[c.function].busy -= 1;
      break;
  }
  check_counts(counts_by_fn_[c.function]);
  if (c.expiry_event != sim::kNoEvent) engine_.cancel(c.expiry_event);
  mem_gauge_by_fn_.at(c.function).add(engine_.now(), -c.memory_mb);
  memory_.release(c.memory_mb);
  containers_.erase(it);
}

int ContainerPool::destroy_idle(const std::string& function) {
  std::vector<ContainerId> victims;
  for (const auto& [id, c] : containers_) {
    if (c.function == function && c.state == ContainerState::kIdle) {
      victims.push_back(id);
    }
  }
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

PoolCounts ContainerPool::counts(const std::string& function) const {
  auto it = counts_by_fn_.find(function);
  return it == counts_by_fn_.end() ? PoolCounts{} : it->second;
}

PoolCounts ContainerPool::total_counts() const {
  PoolCounts total;
  for (const auto& [fn, c] : counts_by_fn_) {
    total.starting += c.starting;
    total.idle += c.idle;
    total.busy += c.busy;
  }
  return total;
}

int ContainerPool::headroom(double memory_mb) const {
  AMOEBA_EXPECTS(memory_mb > 0.0);
  return static_cast<int>(memory_.available() / memory_mb);
}

std::vector<ContainerId> ContainerPool::starting_ids(
    const std::string& function) const {
  std::vector<ContainerId> out;
  for (const auto& [id, c] : containers_) {
    if (c.function == function && c.state == ContainerState::kStarting) {
      out.push_back(id);
    }
  }
  return out;
}

double ContainerPool::memory_mb_seconds(const std::string& function,
                                        sim::Time now) {
  auto it = mem_gauge_by_fn_.find(function);
  if (it == mem_gauge_by_fn_.end()) return 0.0;
  return it->second.integral(now);
}

double ContainerPool::memory_in_use_mb(const std::string& function) const {
  auto it = mem_gauge_by_fn_.find(function);
  return it == mem_gauge_by_fn_.end() ? 0.0 : it->second.value();
}

}  // namespace amoeba::serverless
