// Discrete-event simulation engine.
//
// The engine owns a time-ordered queue of events. Events scheduled at the
// same timestamp fire in the order they were scheduled (FIFO tie-break via a
// monotonically increasing sequence number), which makes every simulation in
// this repository deterministic for a fixed seed.
//
// Hot-path layout (see DESIGN.md §8): events live in a slab of reusable
// slots; callbacks are stored inline in the slot via `InlineCallback` (no
// per-event heap allocation up to ~48 capture bytes); pending events are
// ordered by an indexed 4-ary min-heap of slot indices, so `cancel` is a
// true O(log n) heap removal instead of a lazy tombstone. The `(timestamp,
// sequence)` trace hash and FIFO tie-break are bit-identical to the
// pre-slab engine — the determinism contract the repo's seed hashes pin.
#pragma once

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "sim/inline_callback.hpp"

namespace amoeba::obs {
class Profiler;
}  // namespace amoeba::obs

namespace amoeba::sim {

/// Simulated time in seconds since simulation start.
using Time = double;

/// Opaque handle to a scheduled event; valid until the event fires or is
/// cancelled. Packs (generation << 32 | slot); a handle to a slot that has
/// since been reused fails the generation check and `cancel` returns false.
using EventId = std::uint64_t;

/// Sentinel returned by functions that have no event to reference.
/// (Generations start at 1, so no live handle is ever 0.)
inline constexpr EventId kNoEvent = 0;

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time. Starts at 0.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedule `fn` to run at absolute time `at` (>= now()). Accepts any
  /// void() callable; captures up to ~48 bytes are stored inline. The
  /// template overload constructs the callable directly inside the event
  /// slot — no intermediate InlineCallback, no relocation.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventId schedule(Time at, F&& fn) {
    AMOEBA_EXPECTS_MSG(at >= now_, "cannot schedule an event in the past");
    const SlotIndex s = acquire_slot();
    slots_[s].fn.emplace(std::forward<F>(fn));
    return finish_schedule(at, s);
  }
  EventId schedule(Time at, InlineCallback fn);

  /// Schedule `fn` to run `delay` seconds from now (delay >= 0).
  template <typename F>
  EventId schedule_in(Time delay, F&& fn) {
    return schedule(now_ + delay, std::forward<F>(fn));
  }

  /// Cancel a pending event. Returns true if the event existed and had not
  /// yet fired; false otherwise (already fired / already cancelled).
  bool cancel(EventId id);

  /// Move a pending event to absolute time `at` (>= now()), keeping its id
  /// and its callback. It takes a fresh sequence number, the one `cancel`
  /// plus `schedule` would have taken, so the event trace, trace_hash()
  /// and the FIFO tie-break are exactly those of cancel-and-schedule.
  /// `id` must be pending: a fired, cancelled or firing event is a
  /// contract violation.
  void reschedule(EventId id, Time at);

  /// True if no live events remain.
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }

  /// Number of live (pending, not cancelled) events.
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }

  /// Run the next event. Returns false if the queue is empty.
  bool step();

  /// Run events until simulated time would exceed `t`, then set now() = t.
  /// Events scheduled exactly at `t` are executed.
  void run_until(Time t);

  /// Run until the event queue is empty.
  void run();

  /// Total number of events executed so far (for micro-benchmarks).
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

  /// Order-sensitive hash over every executed event's (timestamp, sequence
  /// number). Two runs of the same simulation produce identical hashes iff
  /// they executed identical event traces — the determinism checker's
  /// anchor. Sequence numbers count `schedule` calls from 1, exactly as the
  /// pre-slab engine's EventIds did, so recorded hashes remain valid.
  [[nodiscard]] std::uint64_t trace_hash() const noexcept {
    return trace_hash_;
  }

  /// Attach an obs::Profiler (nullptr to detach). The profiler is pure
  /// wall-time bookkeeping: the engine tells it when the run loop starts
  /// and stops and what simulated time each dispatched event carries, and
  /// nothing flows back, so the event trace (and trace_hash()) is
  /// bit-identical with or without one. The profiler must also be attached
  /// to the thread driving this engine (Profiler::attach_current_thread).
  void set_profiler(obs::Profiler* p) {
    AMOEBA_EXPECTS_MSG(p == nullptr || profiler_ == nullptr,
                       "detach the current profiler before attaching another");
    profiler_ = p;
  }
  [[nodiscard]] obs::Profiler* profiler() const noexcept { return profiler_; }

 private:
  using SlotIndex = std::uint32_t;
  static constexpr std::uint32_t kNotInHeap = 0xffffffffu;
  static constexpr std::size_t kHeapArity = 4;

  struct Slot {
    std::uint32_t generation = 1;  // bumped when the slot is freed
    InlineCallback fn;
  };

  // The sort key lives in the heap entry itself so sifting compares
  // contiguous memory; the slot is only touched to maintain heap_pos.
  // `seq_slot` packs (sequence << 24 | slot) into one word, keeping the
  // entry at 16 bytes: among equal timestamps the packed value orders by
  // sequence (slot occupies the low bits and sequences are unique), so the
  // FIFO tie-break is exact. 24 slot bits cap concurrent pending events at
  // ~16.7M; 40 sequence bits cap one engine's schedule calls at ~1.1e12.
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr SlotIndex kMaxSlots = (1u << kSlotBits) - 1;
  struct HeapEntry {
    Time at;
    std::uint64_t seq_slot;
    [[nodiscard]] SlotIndex slot() const noexcept {
      return static_cast<SlotIndex>(seq_slot & kMaxSlots);
    }
    [[nodiscard]] std::uint64_t seq() const noexcept {
      return seq_slot >> kSlotBits;
    }
  };
  static_assert(sizeof(HeapEntry) == 16);

  [[nodiscard]] static bool before(const HeapEntry& x,
                                   const HeapEntry& y) noexcept {
    if (x.at != y.at) return x.at < y.at;
    return x.seq_slot < y.seq_slot;  // FIFO: packed order == sequence order
  }

  SlotIndex acquire_slot();
  // True if `id` names a pending event; `s` gets its slot either way.
  bool pending_slot(EventId id, SlotIndex& s) const noexcept;
  // Assigns the sequence number, pushes the heap entry, returns the handle.
  // Out of line so the template `schedule` inlines only slot setup.
  EventId finish_schedule(Time at, SlotIndex s);
  void release_slot(SlotIndex s) noexcept;
  void heap_push(HeapEntry e);
  void heap_remove(std::size_t pos) noexcept;
  void sift_up(std::size_t pos, HeapEntry e) noexcept;
  void sift_down(std::size_t pos, HeapEntry e) noexcept;
  void place(std::size_t pos, HeapEntry e) noexcept {
    heap_[pos] = e;
    heap_pos_[e.slot()] = static_cast<std::uint32_t>(pos);
  }

  Time now_ = 0.0;
  obs::Profiler* profiler_ = nullptr;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t trace_hash_ = 0x9e3779b97f4a7c15ULL;
  std::vector<Slot> slots_;            // slab; index = low 32 bits of EventId
  // Dense side array (slot -> heap position, kNotInHeap when not queued):
  // sifting writes it on every move, so it must not share cache lines with
  // the 64-byte slots.
  std::vector<std::uint32_t> heap_pos_;
  std::vector<SlotIndex> free_slots_;  // LIFO free list into slots_
  std::vector<HeapEntry> heap_;        // indexed 4-ary min-heap
};

}  // namespace amoeba::sim
