// Container pool: creation, warm reuse, keep-alive expiry, LRU eviction.
//
// The pool owns all containers on the serverless node and the memory
// reservation that caps their number (paper §IV-A's n_max: "an upper limit
// for container quantity ... limited by the resource consumption"). The
// platform layers dispatch and invocation execution on top.
//
// Per-function state (container counts, the idle stack, the memory gauge)
// is one record per function, created by add_function() and addressed by
// the FunctionId it returns; an id the pool never handed out trips a
// precondition.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "serverless/container.hpp"
#include "sim/counting_resource.hpp"
#include "sim/engine.hpp"
#include "sim/fault_injector.hpp"
#include "stats/gauge.hpp"

namespace amoeba::serverless {

struct PoolCounts {
  int starting = 0;
  int idle = 0;
  int busy = 0;
  [[nodiscard]] int total() const noexcept { return starting + idle + busy; }
};

class ContainerPool {
 public:
  /// `memory` is the node's container-memory budget; `keep_alive_s` the
  /// warm-container TTL.
  ContainerPool(sim::Engine& engine, double memory_capacity_mb,
                double keep_alive_s);

  /// Create the record of a new function: no containers, a zero memory
  /// gauge. Ids are dense, in call order.
  FunctionId add_function();

  /// Begin a cold start for `function`. Reserves `memory_mb` immediately;
  /// after `boot_s` simulated seconds the container turns idle and
  /// `on_ready(id)` fires. Returns nullopt if memory is insufficient
  /// (caller may evict_lru_idle() and retry).
  ///
  /// With a fault injector attached the boot may straggle (inflated boot
  /// time) or fail: a failed boot holds its memory for the full (possibly
  /// inflated) boot window, then the container is destroyed and
  /// `on_failed(id)` fires instead of `on_ready`.
  std::optional<ContainerId> start(
      FunctionId function, double memory_mb, double boot_s,
      std::function<void(ContainerId)> on_ready,
      std::function<void(ContainerId)> on_failed = nullptr);

  /// Attach the fault injector (non-owning; nullptr disables injection).
  void set_fault_injector(sim::FaultInjector* faults) noexcept {
    faults_ = faults;
  }

  /// True if `memory_mb` could be reserved right now.
  [[nodiscard]] bool memory_available(double memory_mb) const;

  /// Evict the least-recently-used idle container (optionally excluding one
  /// function's containers). Returns true if something was evicted.
  bool evict_lru_idle(std::optional<FunctionId> exclude = std::nullopt);

  /// Pop the most-recently-used idle container of `function` (LIFO reuse
  /// keeps the warm set small). Returns nullopt if none idle.
  std::optional<ContainerId> acquire_idle(FunctionId function);

  /// Return a busy container to the idle set and arm its keep-alive timer.
  void release_to_idle(ContainerId id);

  /// Destroy a container in any state and free its memory.
  void destroy(ContainerId id);

  /// Destroy every idle container of `function` (switch-back reclaim).
  /// Returns how many were destroyed.
  int destroy_idle(FunctionId function);

  /// Mark an idle container busy (used when assigning work).
  void mark_busy(ContainerId id);

  [[nodiscard]] const Container& get(ContainerId id) const;
  [[nodiscard]] Container& get_mutable(ContainerId id);

  [[nodiscard]] PoolCounts counts(FunctionId function) const;
  [[nodiscard]] PoolCounts total_counts() const;

  /// Number of additional containers of `memory_mb` that could start now.
  [[nodiscard]] int headroom(double memory_mb) const;

  /// Ids of `function`'s containers still in the kStarting state
  /// (deterministic ascending-id order). Used for abort reclamation.
  [[nodiscard]] std::vector<ContainerId> starting_ids(
      FunctionId function) const;

  [[nodiscard]] double memory_in_use_mb() const noexcept {
    return memory_.in_use();
  }

  /// Per-function container-memory integral (MB·s) through `now`.
  double memory_mb_seconds(FunctionId function, sim::Time now);

  /// Memory currently reserved by `function`'s containers (MB).
  [[nodiscard]] double memory_in_use_mb(FunctionId function) const;

  /// High-water marks since construction: most containers alive at once and
  /// most memory reserved at once. Cluster invariant tests assert the count
  /// never exceeded the node-wide container budget.
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
  /// What the pool keeps per function.
  struct FunctionRecord {
    PoolCounts counts;
    std::vector<ContainerId> idle;  ///< LIFO: most recently idle last
    stats::IntegratedGauge memory;  ///< reserved MB, integrated over time
  };

  void expire(ContainerId id);
  // Every public method that takes an id checks known(id) on entry; the
  // records of containers' own functions are indexed unchecked.
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
  sim::CountingResource memory_;
  double keep_alive_s_;
  ContainerId next_id_ = 1;
  // Containers iterate in ascending-id order (LRU eviction breaks
  // idle-time ties by it), and the function records in registration
  // order. Both orders are fixed by the schedule alone, never by hash
  // seeds or addresses; the only fold over the records, total_counts(),
  // sums integers.
  std::map<ContainerId, Container> containers_;
  std::vector<FunctionRecord> functions_;
  std::uint64_t cold_starts_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t boot_failures_ = 0;
  int peak_total_containers_ = 0;
  double peak_memory_in_use_mb_ = 0.0;
  sim::FaultInjector* faults_ = nullptr;
};

}  // namespace amoeba::serverless
