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
//
// Containers live in a table of reusable rows addressed through an
// id-indexed row index, so a lookup is two array reads and a cold start
// allocates nothing once the table has grown to the pool's peak. Keep-alive
// expiry is one engine timer per pool over a FIFO of idle containers (see
// DESIGN.md §8): keep_alive_s is fixed, so deadlines join the FIFO in
// non-decreasing order, and a reuse or destroy only unlinks its container.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "serverless/container.hpp"
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
  /// What start() calls when a boot ends: with the container's id.
  using BootCallback = std::function<void(ContainerId)>;

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
      BootCallback on_ready, BootCallback on_failed = nullptr);

  /// Attach the fault injector (non-owning; nullptr disables injection).
  void set_fault_injector(sim::FaultInjector* faults) noexcept {
    faults_ = faults;
  }

  /// True if `memory_mb` could be reserved right now.
  [[nodiscard]] bool memory_available(double memory_mb) const;

  /// Evict the least-recently-used idle container (optionally excluding one
  /// function's containers; that function must be known to the pool).
  /// Returns true if something was evicted.
  bool evict_lru_idle(std::optional<FunctionId> exclude = std::nullopt);

  /// Pop the most-recently-used idle container of `function` (LIFO reuse
  /// keeps the warm set small). Returns nullopt if none idle.
  std::optional<ContainerId> acquire_idle(FunctionId function);

  /// Return a busy container to the idle set; it expires keep_alive_s from
  /// now unless reused first.
  void release_to_idle(ContainerId id);

  /// Destroy a container in any state and free its memory.
  void destroy(ContainerId id);

  /// Destroy every idle container of `function` (switch-back reclaim).
  /// Returns how many were destroyed.
  int destroy_idle(FunctionId function);

  /// Mark the most recently idled container of its function busy (used
  /// when assigning work: acquire_idle's pick, or a container that just
  /// booted for a bound query).
  void mark_busy(ContainerId id);

  /// True while `id` is alive (started and not yet destroyed).
  [[nodiscard]] bool contains(ContainerId id) const noexcept {
    // Unsigned wrap-around sends id 0 out of range too.
    return id - 1 < row_of_.size() && rows_[index_of(id)].container.id == id;
  }

  /// The container's record. The reference is invalidated by the next
  /// start(), which may grow the table.
  [[nodiscard]] const Container& get(ContainerId id) const;

  /// The table row container `id` occupies, or last occupied if it has
  /// been destroyed: fixed while it lives, taken by a later start() once it
  /// is destroyed, and below the pool's peak container count. Callers index
  /// per-container side tables by it.
  [[nodiscard]] std::size_t row(ContainerId id) const;

  [[nodiscard]] PoolCounts counts(FunctionId function) const;
  [[nodiscard]] PoolCounts total_counts() const;

  /// Number of additional containers of `memory_mb` that could start now.
  [[nodiscard]] int headroom(double memory_mb) const;

  /// Ids of `function`'s containers still in the kStarting state
  /// (deterministic ascending-id order). Used for abort reclamation.
  [[nodiscard]] std::vector<ContainerId> starting_ids(
      FunctionId function) const;

  [[nodiscard]] double memory_in_use_mb() const noexcept {
    return memory_in_use_mb_;
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
  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// A row's place in one intrusive list of rows.
  struct Links {
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };
  /// An intrusive doubly-linked list of rows, oldest at the front.
  struct List {
    std::uint32_t front = kNil;
    std::uint32_t back = kNil;
    [[nodiscard]] bool empty() const noexcept { return front == kNil; }
  };

  /// What the pool keeps per function.
  struct FunctionRecord {
    PoolCounts counts;
    /// The function's idle containers, most recently idle at the back
    /// (reused first). They join at the current time only, so idle_since
    /// is non-decreasing from front to back.
    List idle;
    stats::IntegratedGauge memory;  ///< reserved MB, integrated over time
  };

  /// One table row: a live container, or a free row (container.id == 0).
  struct Row {
    Container container;
    /// The boot's callbacks, held until the boot event fires.
    BootCallback on_ready;
    BootCallback on_failed;
    /// While the container is idle: its places in the pool's keep-alive
    /// FIFO and in its function's idle list. A free row chains the free
    /// rows through keep_alive.next.
    Links keep_alive;
    Links idle;
  };

  [[nodiscard]] std::uint32_t index_of(ContainerId id) const {
    return row_of_[id - 1];
  }
  [[nodiscard]] Row& row_of(ContainerId id) { return rows_[index_of(id)]; }
  /// An idle container's expiry time: the time schedule_in(keep_alive_s_)
  /// computed for the per-container event the FIFO replaces.
  [[nodiscard]] sim::Time deadline(const Row& row) const {
    return row.container.idle_since + keep_alive_s_;
  }
  void boot_done(ContainerId id, bool boot_fails);
  void link_back(List& list, Links Row::*links, std::uint32_t r);
  void unlink(List& list, Links Row::*links, std::uint32_t r);
  /// Make the row's container idle now: append it to its function's idle
  /// list and to the keep-alive FIFO, arming the timer if none is armed.
  void make_idle(std::uint32_t r);
  /// Take an idle row out of both lists.
  void unlink_idle(std::uint32_t r);
  /// The timer's event: expire the due containers at the FIFO's front in
  /// order, then re-arm at the next deadline.
  void expire_due();
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

  /// Memory not reserved by any container (MB).
  [[nodiscard]] double memory_free_mb() const noexcept {
    return memory_capacity_mb_ - memory_in_use_mb_;
  }

  sim::Engine& engine_;
  double memory_capacity_mb_;
  /// Reserved from start() to destroy(); a reservation fits while the sum
  /// stays within the capacity plus 1e-9 MB.
  double memory_in_use_mb_ = 0.0;
  double keep_alive_s_;
  ContainerId next_id_ = 1;
  // Rows are reused through a LIFO free list, so row order is not id
  // order: every tie-break that used to follow ascending ids (LRU eviction,
  // starting_ids, destroy_idle) compares ids explicitly. Function records
  // are in registration order. Both are fixed by the schedule alone, never
  // by hash seeds or addresses; the only fold over the records,
  // total_counts(), sums integers.
  std::vector<Row> rows_;
  std::uint32_t free_rows_ = kNil;  ///< head of the free-row chain
  /// Indexed by ContainerId - 1 (ids are sequential from 1): the row the
  /// container occupies or last occupied. Four bytes per container ever
  /// started.
  std::vector<std::uint32_t> row_of_;
  int live_containers_ = 0;
  std::vector<FunctionRecord> functions_;
  /// The keep-alive FIFO: every idle container, in the order it went idle,
  /// which is deadline order.
  List keep_alive_;
  /// The one keep-alive event, armed at or before the front's deadline (a
  /// reuse or destroy of the front leaves it early); kNoEvent when none is
  /// armed.
  sim::EventId keep_alive_timer_ = sim::kNoEvent;
  std::uint64_t cold_starts_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t boot_failures_ = 0;
  int peak_total_containers_ = 0;
  double peak_memory_in_use_mb_ = 0.0;
  sim::FaultInjector* faults_ = nullptr;
};

}  // namespace amoeba::serverless
