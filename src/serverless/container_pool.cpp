#include "serverless/container_pool.hpp"

#include <algorithm>
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
      memory_capacity_mb_(memory_capacity_mb),
      keep_alive_s_(keep_alive_s) {
  AMOEBA_EXPECTS(memory_capacity_mb > 0.0);
  AMOEBA_EXPECTS(keep_alive_s > 0.0);
}

FunctionId ContainerPool::add_function() {
  functions_.push_back({{}, {}, stats::IntegratedGauge(engine_.now())});
  return static_cast<FunctionId>(functions_.size() - 1);
}

std::optional<ContainerId> ContainerPool::start(
    FunctionId function, double memory_mb, double boot_s,
    BootCallback on_ready, BootCallback on_failed) {
  AMOEBA_PROF_SCOPE(kServerlessPool);
  AMOEBA_EXPECTS(memory_mb > 0.0);
  AMOEBA_EXPECTS(boot_s >= 0.0);
  AMOEBA_EXPECTS(on_ready != nullptr);
  AMOEBA_EXPECTS(known(function));
  FunctionRecord& rec = record(function);
  if (memory_in_use_mb_ + memory_mb > memory_capacity_mb_ + 1e-9) {
    return std::nullopt;
  }
  memory_in_use_mb_ += memory_mb;
  AMOEBA_INVARIANT_VALS(memory_in_use_mb_ <= memory_capacity_mb_ + 1e-6,
                        memory_in_use_mb_, memory_capacity_mb_);

  bool boot_fails = false;
  if (faults_ != nullptr) {
    const sim::FaultInjector::BootFault fault = faults_->next_container_boot();
    boot_fails = fault.fail;
    boot_s *= fault.delay_multiplier;
  }

  const ContainerId id = next_id_++;
  std::uint32_t r = free_rows_;
  if (r == kNil) {
    r = static_cast<std::uint32_t>(rows_.size());
    rows_.emplace_back();
  } else {
    free_rows_ = rows_[r].keep_alive.next;
  }
  AMOEBA_ASSERT(row_of_.size() == id - 1);
  row_of_.push_back(r);
  Row& row = rows_[r];
  row.container = Container{};
  row.container.id = id;
  row.container.function = function;
  row.container.state = ContainerState::kStarting;
  row.container.memory_mb = memory_mb;
  row.container.created_at = engine_.now();
  row.on_ready = std::move(on_ready);
  row.on_failed = std::move(on_failed);
  row.keep_alive = row.idle = Links{};
  ++live_containers_;
  rec.counts.starting += 1;
  rec.memory.add(engine_.now(), memory_mb);
  ++cold_starts_;
  peak_total_containers_ = std::max(peak_total_containers_, live_containers_);
  peak_memory_in_use_mb_ = std::max(peak_memory_in_use_mb_, memory_in_use_mb_);

  // The callbacks wait in the row, so the boot event captures 24 bytes and
  // stays in the engine slot's inline buffer.
  engine_.schedule_in(boot_s,
                      [this, id, boot_fails] { boot_done(id, boot_fails); });
  return id;
}

void ContainerPool::boot_done(ContainerId id, bool boot_fails) {
  if (!contains(id)) return;  // destroyed while starting
  Row& row = row_of(id);
  AMOEBA_ASSERT(row.container.state == ContainerState::kStarting);
  // Move the callbacks out first: they may start containers, which can grow
  // the table under them.
  BootCallback on_ready = std::exchange(row.on_ready, nullptr);
  BootCallback on_failed = std::exchange(row.on_failed, nullptr);
  if (boot_fails) {
    // A failed boot held its memory for the full window; release it now.
    ++boot_failures_;
    destroy(id);
    if (on_failed) on_failed(id);
    return;
  }
  row.container.ready_at = engine_.now();
  FunctionRecord& fr = record(row.container.function);
  fr.counts.starting -= 1;
  fr.counts.idle += 1;
  check_counts(fr.counts);
  make_idle(index_of(id));
  on_ready(id);
}

void ContainerPool::link_back(List& list, Links Row::*links,
                              std::uint32_t r) {
  Links& l = rows_[r].*links;
  l.prev = list.back;
  l.next = kNil;
  if (list.back == kNil) {
    list.front = r;
  } else {
    (rows_[list.back].*links).next = r;
  }
  list.back = r;
}

void ContainerPool::unlink(List& list, Links Row::*links, std::uint32_t r) {
  Links& l = rows_[r].*links;
  if (l.prev == kNil) {
    list.front = l.next;
  } else {
    (rows_[l.prev].*links).next = l.next;
  }
  if (l.next == kNil) {
    list.back = l.prev;
  } else {
    (rows_[l.next].*links).prev = l.prev;
  }
  l = Links{};
}

void ContainerPool::make_idle(std::uint32_t r) {
  Container& c = rows_[r].container;
  c.state = ContainerState::kIdle;
  c.idle_since = engine_.now();
  link_back(record(c.function).idle, &Row::idle, r);
  link_back(keep_alive_, &Row::keep_alive, r);
  if (keep_alive_timer_ == sim::kNoEvent) {
    keep_alive_timer_ =
        engine_.schedule(deadline(rows_[r]), [this] { expire_due(); });
  }
}

void ContainerPool::unlink_idle(std::uint32_t r) {
  unlink(record(rows_[r].container.function).idle, &Row::idle, r);
  unlink(keep_alive_, &Row::keep_alive, r);
}

void ContainerPool::expire_due() {
  AMOEBA_PROF_SCOPE(kServerlessPool);
  keep_alive_timer_ = sim::kNoEvent;
  // Every deadline at the front that is due equals now: the timer was
  // armed at the front's deadline, and later ones are no earlier.
  while (!keep_alive_.empty() &&
         deadline(rows_[keep_alive_.front]) <= engine_.now()) {
    destroy(rows_[keep_alive_.front].container.id);
  }
  if (!keep_alive_.empty()) {
    keep_alive_timer_ = engine_.schedule(deadline(rows_[keep_alive_.front]),
                                         [this] { expire_due(); });
  }
}

bool ContainerPool::memory_available(double memory_mb) const {
  return memory_free_mb() + 1e-9 >= memory_mb;
}

bool ContainerPool::evict_lru_idle(std::optional<FunctionId> exclude) {
  AMOEBA_PROF_SCOPE(kServerlessPool);
  AMOEBA_EXPECTS_MSG(!exclude.has_value() || known(*exclude),
                     "excluded function was never added");
  // Each idle list is ordered by idle_since, so the pool's least
  // (idle_since, id) is in the run of equal idle_since at some list's
  // front: a scan of the functions, not of the containers. Most calls come
  // from a saturated pool with nothing idle to give up and miss at once.
  const Row* victim = nullptr;
  for (std::size_t i = 0; i < functions_.size(); ++i) {
    if (static_cast<FunctionId>(i) == exclude) continue;
    const List& idle = functions_[i].idle;
    if (idle.empty()) continue;
    const sim::Time since = rows_[idle.front].container.idle_since;
    if (victim != nullptr && since > victim->container.idle_since) continue;
    for (std::uint32_t r = idle.front; r != kNil; r = rows_[r].idle.next) {
      const Container& c = rows_[r].container;
      if (c.idle_since != since) break;
      if (victim == nullptr || since < victim->container.idle_since ||
          c.id < victim->container.id) {
        victim = &rows_[r];
      }
    }
  }
  if (victim == nullptr) return false;
  ++evictions_;
  destroy(victim->container.id);
  return true;
}

std::optional<ContainerId> ContainerPool::acquire_idle(FunctionId function) {
  // Deliberately unscoped: this is the per-invocation fast path (an index
  // lookup), and a profiler scope here would cost more than it measures.
  // Container *lifecycle* bookkeeping (start/evict/destroy/expire) carries
  // the kServerlessPool scopes.
  AMOEBA_EXPECTS(known(function));
  const List& idle = record(function).idle;
  if (idle.empty()) return std::nullopt;
  const ContainerId id = rows_[idle.back].container.id;
  mark_busy(id);
  return id;
}

void ContainerPool::mark_busy(ContainerId id) {
  AMOEBA_EXPECTS_MSG(contains(id), "unknown container id");
  const std::uint32_t r = index_of(id);
  Container& c = rows_[r].container;
  AMOEBA_EXPECTS_MSG(c.state == ContainerState::kIdle,
                     "only idle containers can take work");
  FunctionRecord& fr = record(c.function);
  AMOEBA_EXPECTS_MSG(fr.idle.back == r,
                     "only the most recently idled container can take work");
  unlink_idle(r);
  c.state = ContainerState::kBusy;
  ++c.invocations_served;
  fr.counts.idle -= 1;
  fr.counts.busy += 1;
  check_counts(fr.counts);
}

void ContainerPool::release_to_idle(ContainerId id) {
  // Unscoped like acquire_idle: per-invocation fast path.
  AMOEBA_EXPECTS_MSG(contains(id), "unknown container id");
  const Container& c = row_of(id).container;
  AMOEBA_EXPECTS(c.state == ContainerState::kBusy);
  FunctionRecord& fr = record(c.function);
  fr.counts.busy -= 1;
  fr.counts.idle += 1;
  check_counts(fr.counts);
  make_idle(index_of(id));
}

void ContainerPool::destroy(ContainerId id) {
  AMOEBA_PROF_SCOPE(kServerlessPool);
  AMOEBA_EXPECTS_MSG(contains(id), "destroying unknown container");
  const std::uint32_t r = index_of(id);
  Row& row = rows_[r];
  const Container& c = row.container;
  FunctionRecord& fr = record(c.function);
  switch (c.state) {
    case ContainerState::kStarting:
      fr.counts.starting -= 1;
      break;
    case ContainerState::kIdle:
      fr.counts.idle -= 1;
      unlink_idle(r);
      break;
    case ContainerState::kBusy:
      fr.counts.busy -= 1;
      break;
  }
  check_counts(fr.counts);
  // The gauge is a running sum, and sizes that do not add exactly can leave
  // dust (even below zero) once every container is gone: the last one out
  // sets it to exactly zero.
  if (fr.counts.total() == 0) {
    fr.memory.set(engine_.now(), 0.0);
  } else {
    fr.memory.add(engine_.now(), -c.memory_mb);
  }
  AMOEBA_INVARIANT_MSG(c.memory_mb <= memory_in_use_mb_ + 1e-9,
                       "releasing more memory than held");
  memory_in_use_mb_ -= c.memory_mb;
  if (memory_in_use_mb_ < 0.0) memory_in_use_mb_ = 0.0;
  // Free the row; a pending boot event for `id` finds it gone.
  row.container.id = 0;
  row.on_ready = nullptr;
  row.on_failed = nullptr;
  row.keep_alive.next = free_rows_;
  free_rows_ = r;
  --live_containers_;
}

int ContainerPool::destroy_idle(FunctionId function) {
  AMOEBA_EXPECTS(known(function));
  // Destroy in ascending-id order.
  std::vector<ContainerId> victims;
  for (std::uint32_t r = record(function).idle.front; r != kNil;
       r = rows_[r].idle.next) {
    victims.push_back(rows_[r].container.id);
  }
  std::sort(victims.begin(), victims.end());
  for (ContainerId id : victims) destroy(id);
  return static_cast<int>(victims.size());
}

const Container& ContainerPool::get(ContainerId id) const {
  AMOEBA_EXPECTS_MSG(contains(id), "unknown container id");
  return rows_[index_of(id)].container;
}

std::size_t ContainerPool::row(ContainerId id) const {
  AMOEBA_EXPECTS_MSG(id - 1 < row_of_.size(), "container id never started");
  return index_of(id);
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
  return static_cast<int>(memory_free_mb() / memory_mb);
}

std::vector<ContainerId> ContainerPool::starting_ids(
    FunctionId function) const {
  AMOEBA_EXPECTS(known(function));
  std::vector<ContainerId> out;
  for (const Row& row : rows_) {
    const Container& c = row.container;
    if (c.id != 0 && c.function == function &&
        c.state == ContainerState::kStarting) {
      out.push_back(c.id);
    }
  }
  std::sort(out.begin(), out.end());  // rows are not in id order
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
