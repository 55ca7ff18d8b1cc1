#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "obs/profiler.hpp"

namespace amoeba::sim {

namespace {

/// SplitMix64-style finalizer for the trace hash.
std::uint64_t mix64(std::uint64_t z) noexcept {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr EventId pack_id(std::uint32_t generation,
                          std::uint32_t slot) noexcept {
  return (static_cast<EventId>(generation) << 32) | slot;
}

}  // namespace

Engine::SlotIndex Engine::acquire_slot() {
  if (!free_slots_.empty()) {
    const SlotIndex s = free_slots_.back();
    free_slots_.pop_back();
    return s;
  }
  AMOEBA_EXPECTS_MSG(slots_.size() < kMaxSlots,
                     "event slot slab exhausted (2^24 concurrent events)");
  slots_.emplace_back();
  heap_pos_.push_back(kNotInHeap);
  return static_cast<SlotIndex>(slots_.size() - 1);
}

void Engine::release_slot(SlotIndex s) noexcept {
  Slot& slot = slots_[s];
  slot.fn = nullptr;
  heap_pos_[s] = kNotInHeap;
  // Bump the generation so outstanding handles to this slot go stale.
  // Skip 0 on wrap so (generation, slot) never packs to kNoEvent.
  if (++slot.generation == 0) slot.generation = 1;
  free_slots_.push_back(s);
}

void Engine::sift_up(std::size_t pos, HeapEntry e) noexcept {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kHeapArity;
    if (!before(e, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, e);
}

void Engine::sift_down(std::size_t pos, HeapEntry e) noexcept {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first_child = pos * kHeapArity + 1;
    if (first_child >= n) break;
    const std::size_t last_child = std::min(first_child + kHeapArity, n);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], e)) break;
    place(pos, heap_[best]);
    pos = best;
  }
  place(pos, e);
}

void Engine::heap_push(HeapEntry e) {
  heap_.resize(heap_.size() + 1);
  sift_up(heap_.size() - 1, e);
}

void Engine::heap_remove(std::size_t pos) noexcept {
  AMOEBA_INVARIANT(pos < heap_.size());
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // removed the tail entry
  // The replacement may need to move either direction.
  if (pos > 0 && before(last, heap_[(pos - 1) / kHeapArity])) {
    sift_up(pos, last);
  } else {
    sift_down(pos, last);
  }
}

EventId Engine::schedule(Time at, InlineCallback fn) {
  AMOEBA_EXPECTS_MSG(at >= now_, "cannot schedule an event in the past");
  AMOEBA_EXPECTS(static_cast<bool>(fn));
  const SlotIndex s = acquire_slot();
  slots_[s].fn = std::move(fn);
  return finish_schedule(at, s);
}

EventId Engine::finish_schedule(Time at, SlotIndex s) {
  const std::uint64_t seq = next_seq_++;
  AMOEBA_INVARIANT(seq < (std::uint64_t{1} << 40));
  heap_push(HeapEntry{at, (seq << kSlotBits) | s});
  return pack_id(slots_[s].generation, s);
}

bool Engine::pending_slot(EventId id, SlotIndex& s) const noexcept {
  s = static_cast<SlotIndex>(id & 0xffffffffu);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  // A matching generation whose slot is out of the heap is mid-fire (its
  // own handler is running): it has already left the heap.
  return s < slots_.size() && slots_[s].generation == generation &&
         heap_pos_[s] != kNotInHeap;
}

bool Engine::cancel(EventId id) {
  // Fired, cancelled and mid-fire events have nothing to cancel: false,
  // the pre-slab semantics.
  SlotIndex s = 0;
  if (!pending_slot(id, s)) return false;
  heap_remove(heap_pos_[s]);
  release_slot(s);
  return true;
}

void Engine::reschedule(EventId id, Time at) {
  AMOEBA_EXPECTS_MSG(at >= now_, "cannot schedule an event in the past");
  SlotIndex s = 0;
  const bool pending = pending_slot(id, s);
  AMOEBA_EXPECTS_MSG(pending, "reschedule needs a pending event");
  const std::uint64_t seq = next_seq_++;
  AMOEBA_INVARIANT(seq < (std::uint64_t{1} << 40));
  const std::size_t pos = heap_pos_[s];
  const HeapEntry e{at, (seq << kSlotBits) | s};
  // Earlier than the old key: its children stay after it, so only up.
  if (before(e, heap_[pos])) {
    sift_up(pos, e);
  } else {
    sift_down(pos, e);
  }
}

bool Engine::step() {
  if (heap_.empty()) return false;
  const HeapEntry top = heap_[0];
  AMOEBA_INVARIANT_VALS(top.at >= now_, top.at, now_);
  now_ = top.at;
  // Sim-time bucket advance only — the profiler reads no clock here unless
  // the bucket index changes, so the per-event cost is one branch.
  if (profiler_ != nullptr) profiler_->engine_dispatch(top.at);
  ++executed_;
  trace_hash_ = mix64(trace_hash_ ^ std::bit_cast<std::uint64_t>(top.at) ^
                      (top.seq() * 0x2545f4914f6cdd1dULL));
  // Move the callback out before freeing the slot: the handler may schedule
  // new events, which can both reuse this slot and grow the slab (invoking
  // in place would dangle if `slots_` reallocates). A handler cancelling
  // its own id gets false — the generation is already bumped.
  const SlotIndex fired = top.slot();
  InlineCallback fn = std::move(slots_[fired].fn);
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, last);
  release_slot(fired);
  fn();
  return true;
}

void Engine::run_until(Time t) {
  AMOEBA_EXPECTS(t >= now_);
  if (profiler_ != nullptr) profiler_->engine_run_begin();
  while (!heap_.empty() && heap_[0].at <= t) {
    step();
  }
  now_ = t;
  if (profiler_ != nullptr) profiler_->engine_run_end();
}

void Engine::run() {
  if (profiler_ != nullptr) profiler_->engine_run_begin();
  while (step()) {
  }
  if (profiler_ != nullptr) profiler_->engine_run_end();
}

}  // namespace amoeba::sim
