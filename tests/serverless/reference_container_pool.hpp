// Test-only reference model of ContainerPool: one keep-alive event per idle
// container, containers in an ordered map.
//
// This is the pool the simulator used before the keep-alive deadlines moved
// into one FIFO with a single engine timer, kept verbatim in its
// bookkeeping so tests can compare the production class against it. Every
// idle container holds its own engine event, which a reuse cancels and a
// release schedules again; an idle pool therefore holds as many engine
// events as idle containers, which is why it lives here and not in src/.
// Left out: the profiler scopes and the negative-count checks. Added:
// contains(), which the differential test polls.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "serverless/container_pool.hpp"
#include "sim/engine.hpp"
#include "sim/fault_injector.hpp"
#include "stats/gauge.hpp"

namespace amoeba::serverless::testing {

/// The container record of the reference pool: the production fields plus
/// the container's own keep-alive event.
struct ReferenceContainer {
  ContainerId id = 0;
  FunctionId function{};
  ContainerState state = ContainerState::kStarting;
  double memory_mb = 0.0;
  sim::Time created_at = 0.0;
  sim::Time ready_at = 0.0;
  sim::Time idle_since = 0.0;
  sim::EventId expiry_event = sim::kNoEvent;
  std::uint64_t invocations_served = 0;
};

class ReferenceContainerPool {
 public:
  /// Same arguments as ContainerPool.
  ReferenceContainerPool(sim::Engine& engine, double memory_capacity_mb,
                         double keep_alive_s)
      : engine_(engine),
        memory_capacity_mb_(memory_capacity_mb),
        keep_alive_s_(keep_alive_s) {
    AMOEBA_EXPECTS(memory_capacity_mb > 0.0);
    AMOEBA_EXPECTS(keep_alive_s > 0.0);
  }
  ReferenceContainerPool(const ReferenceContainerPool&) = delete;
  ReferenceContainerPool& operator=(const ReferenceContainerPool&) = delete;

  FunctionId add_function() {
    functions_.push_back({{}, {}, stats::IntegratedGauge(engine_.now())});
    return static_cast<FunctionId>(functions_.size() - 1);
  }

  std::optional<ContainerId> start(
      FunctionId function, double memory_mb, double boot_s,
      std::function<void(ContainerId)> on_ready,
      std::function<void(ContainerId)> on_failed = nullptr) {
    AMOEBA_EXPECTS(memory_mb > 0.0);
    AMOEBA_EXPECTS(boot_s >= 0.0);
    AMOEBA_EXPECTS(on_ready != nullptr);
    AMOEBA_EXPECTS(known(function));
    FunctionRecord& rec = record(function);
    if (memory_in_use_mb_ + memory_mb > memory_capacity_mb_ + 1e-9) {
      return std::nullopt;
    }
    memory_in_use_mb_ += memory_mb;

    bool boot_fails = false;
    if (faults_ != nullptr) {
      const sim::FaultInjector::BootFault fault =
          faults_->next_container_boot();
      boot_fails = fault.fail;
      boot_s *= fault.delay_multiplier;
    }

    const ContainerId id = next_id_++;
    ReferenceContainer c;
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
    peak_memory_in_use_mb_ =
        std::max(peak_memory_in_use_mb_, memory_in_use_mb_);

    engine_.schedule_in(boot_s, [this, id, boot_fails,
                                 cb = std::move(on_ready),
                                 fb = std::move(on_failed)] {
      auto cit = containers_.find(id);
      if (cit == containers_.end()) return;  // destroyed while starting
      ReferenceContainer& cont = cit->second;
      AMOEBA_ASSERT(cont.state == ContainerState::kStarting);
      if (boot_fails) {
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
      fr.idle.push_back(id);
      cont.expiry_event =
          engine_.schedule_in(keep_alive_s_, [this, id] { expire(id); });
      cb(id);
    });
    return id;
  }

  void set_fault_injector(sim::FaultInjector* faults) noexcept {
    faults_ = faults;
  }

  [[nodiscard]] bool memory_available(double memory_mb) const {
    return memory_capacity_mb_ - memory_in_use_mb_ + 1e-9 >= memory_mb;
  }

  bool evict_lru_idle(std::optional<FunctionId> exclude = std::nullopt) {
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

  std::optional<ContainerId> acquire_idle(FunctionId function) {
    AMOEBA_EXPECTS(known(function));
    const std::vector<ContainerId>& idle = record(function).idle;
    if (idle.empty()) return std::nullopt;
    const ContainerId id = idle.back();
    mark_busy(id);
    return id;
  }

  void mark_busy(ContainerId id) {
    ReferenceContainer& c = get_mutable(id);
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
  }

  void release_to_idle(ContainerId id) {
    ReferenceContainer& c = get_mutable(id);
    AMOEBA_EXPECTS(c.state == ContainerState::kBusy);
    c.state = ContainerState::kIdle;
    c.idle_since = engine_.now();
    FunctionRecord& fr = record(c.function);
    fr.counts.busy -= 1;
    fr.counts.idle += 1;
    fr.idle.push_back(id);
    c.expiry_event =
        engine_.schedule_in(keep_alive_s_, [this, id] { expire(id); });
  }

  void destroy(ContainerId id) {
    auto it = containers_.find(id);
    AMOEBA_EXPECTS_MSG(it != containers_.end(),
                       "destroying unknown container");
    ReferenceContainer& c = it->second;
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
    if (c.expiry_event != sim::kNoEvent) engine_.cancel(c.expiry_event);
    fr.memory.add(engine_.now(), -c.memory_mb);
    AMOEBA_EXPECTS(c.memory_mb <= memory_in_use_mb_ + 1e-9);
    memory_in_use_mb_ = std::max(memory_in_use_mb_ - c.memory_mb, 0.0);
    containers_.erase(it);
  }

  int destroy_idle(FunctionId function) {
    AMOEBA_EXPECTS(known(function));
    std::vector<ContainerId> victims = record(function).idle;
    std::sort(victims.begin(), victims.end());
    for (ContainerId id : victims) destroy(id);
    return static_cast<int>(victims.size());
  }

  [[nodiscard]] bool contains(ContainerId id) const {
    return containers_.contains(id);
  }

  [[nodiscard]] const ReferenceContainer& get(ContainerId id) const {
    auto it = containers_.find(id);
    AMOEBA_EXPECTS_MSG(it != containers_.end(), "unknown container id");
    return it->second;
  }
  [[nodiscard]] ReferenceContainer& get_mutable(ContainerId id) {
    auto it = containers_.find(id);
    AMOEBA_EXPECTS_MSG(it != containers_.end(), "unknown container id");
    return it->second;
  }

  [[nodiscard]] PoolCounts counts(FunctionId function) const {
    AMOEBA_EXPECTS(known(function));
    return record(function).counts;
  }

  [[nodiscard]] PoolCounts total_counts() const {
    PoolCounts total;
    for (const FunctionRecord& fr : functions_) {
      total.starting += fr.counts.starting;
      total.idle += fr.counts.idle;
      total.busy += fr.counts.busy;
    }
    return total;
  }

  [[nodiscard]] int headroom(double memory_mb) const {
    AMOEBA_EXPECTS(memory_mb > 0.0);
    return static_cast<int>((memory_capacity_mb_ - memory_in_use_mb_) /
                            memory_mb);
  }

  [[nodiscard]] std::vector<ContainerId> starting_ids(
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

  [[nodiscard]] double memory_in_use_mb() const noexcept {
    return memory_in_use_mb_;
  }
  double memory_mb_seconds(FunctionId function, sim::Time now) {
    AMOEBA_EXPECTS(known(function));
    return record(function).memory.integral(now);
  }
  [[nodiscard]] double memory_in_use_mb(FunctionId function) const {
    AMOEBA_EXPECTS(known(function));
    return record(function).memory.value();
  }

  [[nodiscard]] int peak_total_containers() const noexcept {
    return peak_total_containers_;
  }
  [[nodiscard]] double peak_memory_in_use_mb() const noexcept {
    return peak_memory_in_use_mb_;
  }
  [[nodiscard]] std::uint64_t cold_starts() const noexcept {
    return cold_starts_;
  }
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }
  [[nodiscard]] std::uint64_t boot_failures() const noexcept {
    return boot_failures_;
  }

 private:
  struct FunctionRecord {
    PoolCounts counts;
    std::vector<ContainerId> idle;
    stats::IntegratedGauge memory;
  };

  void expire(ContainerId id) {
    auto it = containers_.find(id);
    if (it == containers_.end()) return;
    if (it->second.state != ContainerState::kIdle) return;
    it->second.expiry_event = sim::kNoEvent;
    destroy(id);
  }
  [[nodiscard]] bool known(FunctionId function) const noexcept {
    return static_cast<std::size_t>(function) < functions_.size();
  }
  FunctionRecord& record(FunctionId function) {
    return functions_[static_cast<std::size_t>(function)];
  }
  const FunctionRecord& record(FunctionId function) const {
    return functions_[static_cast<std::size_t>(function)];
  }

  sim::Engine& engine_;
  double memory_capacity_mb_;
  double memory_in_use_mb_ = 0.0;
  double keep_alive_s_;
  ContainerId next_id_ = 1;
  std::map<ContainerId, ReferenceContainer> containers_;
  std::vector<FunctionRecord> functions_;
  std::uint64_t cold_starts_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t boot_failures_ = 0;
  int peak_total_containers_ = 0;
  double peak_memory_in_use_mb_ = 0.0;
  sim::FaultInjector* faults_ = nullptr;
};

}  // namespace amoeba::serverless::testing
