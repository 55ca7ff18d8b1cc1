// Work-conserving max-min fair-shared resource.
//
// This is the ground-truth contention physics of the simulated cluster.
// A `FairShareResource` models one shared resource on a node — the CPU
// cores, the disk-IO bandwidth, or the NIC bandwidth. Clients open
// *streams*, each carrying an amount of `work` (core-seconds for CPU,
// bytes for bandwidth) and a per-stream rate cap (a container can use at
// most one core; a single TCP flow can be capped below line rate).
//
// At any instant the resource divides its capacity among active streams by
// max-min fairness (progressive filling): streams capped below the equal
// share keep their cap, the slack is redistributed among the rest. Completion
// order under equal remaining work is deterministic (stream-id order).
//
// Design: processor sharing on a virtual clock. Streams with the same
// effective cap always get the same max-min rate, so they are grouped into
// *cap classes*. In the simulator a resource has exactly one class (CPU
// streams use the container core cap or 1.0; disk and net are uncapped), but
// mixed caps work. Each class keeps
//   - `rate`:   the one allocated rate every stream of the class runs at;
//   - `served`: a virtual clock, the work each of its streams has received
//               since the class last became non-empty;
//   - a 4-ary min-heap of POD entries {finish, id, sink, key, tag}, where a
//     stream's finish tag is `served` at open plus its work, so its
//     remaining work is finish - served.
// Banking progress is `served += rate·dt` per class, water-filling walks
// the classes, and the earliest completion is each class's heap top, so an
// event costs O(#classes + log #streams) instead of O(#streams). The heap
// entry is the whole stream: a completion is delivered to the entry's
// `StreamSink` with the entry's key, so nothing but the entry is stored
// per stream. Sifts carry the moving entry as a hole; close() removes the
// entry at its position.
//
// Steady state allocates nothing: an emptied class hands its heap storage
// to a spare list the next new class takes it from, and a completion event
// collects its drained entries in one reused member buffer.
//
// Determinism contract: the arithmetic below and its order are part of the
// trace. That covers the finish tags (served + work), `served` banking per
// class, water-filling over the classes in ascending cap order
// (rate = min(cap, R/m), then R -= rate·n), the interference penalty, the
// drain epsilons applied to finish - served, `served` resetting to 0 when a
// class empties, the single completion event (moved with
// Engine::reschedule, which takes the sequence number cancel-and-schedule
// would), and drained streams reaching their sinks in id order. Changing
// any of them moves trace hashes.
//
// Lifetimes: a sink must outlive every stream opened on it, or close them
// first; the resource calls it from a completion event with no check. A
// sink must not destroy the resource that calls it: the event loop still
// owns the reused drained buffer while sinks run. (No client does; VMs and
// platforms own their runner and outlive their streams.)
//
// The Amoeba controller never looks inside this class — it only observes
// latencies, exactly as on real hardware.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/engine.hpp"

namespace amoeba::sim {

using StreamId = std::uint64_t;

/// Demand-attribution key of a stream: a client's dense id (the serverless
/// platform tags streams with the owning function's id), or kUntagged.
using StreamTag = std::uint32_t;
inline constexpr StreamTag kUntagged = std::numeric_limits<StreamTag>::max();

/// Where a stream's completion goes: the resource calls `stream_done` with
/// the key the stream was opened with. The owner picks the keys (a
/// workload::PhaseRunner passes its query slot).
class StreamSink {
 public:
  virtual void stream_done(std::uint32_t key) = 0;

 protected:
  ~StreamSink() = default;  // never owned through this interface
};

class FairShareResource {
 public:

  /// `capacity` is in work-units per second (cores, or bytes/s).
  /// `interference` >= 0 models throughput loss that grows with overall
  /// utilization (shared-cache / memory-bandwidth contention on a CPU):
  /// every stream's allocated rate is scaled by 1 / (1 + interference · U)
  /// where U is the pre-penalty utilization. 0 disables the effect
  /// (pure max-min sharing, appropriate for IO/NIC bandwidth).
  FairShareResource(Engine& engine, double capacity, double interference = 0.0);
  ~FairShareResource();
  FairShareResource(const FairShareResource&) = delete;
  FairShareResource& operator=(const FairShareResource&) = delete;

  /// Open a stream with `work` units to process and a per-stream rate cap
  /// (`cap <= 0` means "uncapped": the full capacity). When the work drains,
  /// the resource calls `sink.stream_done(key)` from an engine event at the
  /// exact completion instant. `work` == 0 completes at the current time but
  /// still via an engine event (never re-entrantly).
  ///
  /// `tag` optionally attributes the stream's demand to a client (the
  /// serverless platform tags streams with the owning function's id).
  /// Tagged demand is queryable via demand_of()/pressure_of(): this is the
  /// ground-truth per-tenant demand breakdown a multi-service cluster run
  /// needs to attribute cross-service pressure. Untagged streams cost
  /// nothing extra.
  StreamId open(double work, double cap, StreamSink& sink, std::uint32_t key,
                StreamTag tag = kUntagged);

  /// Abort a stream before completion. Returns the remaining work (0 if the
  /// stream was unknown or already complete).
  double close(StreamId id);

  /// Number of currently active streams.
  [[nodiscard]] int active() const noexcept;

  /// Demand pressure: total capped demand rate divided by capacity.
  /// 1.0 means the resource is exactly saturated; >1 oversubscribed.
  [[nodiscard]] double pressure() const noexcept;

  /// Capped demand rate currently attributed to `tag` (0 for unknown tags
  /// and for kUntagged). Walks the live streams: O(#streams), and off every
  /// hot path.
  [[nodiscard]] double demand_of(StreamTag tag) const noexcept;

  /// `demand_of(tag) / capacity`: the tag's own share of pressure().
  [[nodiscard]] double pressure_of(StreamTag tag) const noexcept;

  /// Pressure from every *other* tenant: pressure() - pressure_of(tag).
  /// Untagged streams count as external to every tag.
  [[nodiscard]] double external_pressure(StreamTag tag) const noexcept;

  /// Instantaneous allocated rate of a stream (0 if unknown). Like close(),
  /// this searches the heaps: O(#streams).
  [[nodiscard]] double rate_of(StreamId id) const noexcept;

  /// Fraction of capacity currently allocated (work-conserving utilization).
  [[nodiscard]] double utilization() const noexcept;

  /// Time-integral of utilization since construction. Lazily advances the
  /// integral to `now`, so it is also called internally for that side
  /// effect (hence no [[nodiscard]]).
  double busy_capacity_seconds(Time now) const noexcept;

  [[nodiscard]] double capacity() const noexcept { return capacity_; }

 private:
  // One heap entry per live stream, and all the resource keeps of it.
  struct Entry {
    double finish = 0.0;  // class virtual time at which the stream drains
    StreamId id = 0;
    StreamSink* sink = nullptr;
    std::uint32_t key = 0;        // handed back to the sink
    StreamTag tag = kUntagged;    // demand attribution key
  };
  // The streams sharing one effective cap, hence one max-min rate.
  struct CapClass {
    double cap = 0.0;          // effective cap (already clamped to capacity)
    double rate = 0.0;         // current allocated rate of each stream
    double served = 0.0;       // virtual clock: work each stream received
    std::vector<Entry> heap;   // 4-ary min-heap on (finish, id)
  };
  // Find-or-insert the class of effective cap `cap`, in ascending cap order.
  CapClass& class_for(double cap);
  // Erase an emptied class, keeping its heap storage for the next new class.
  std::vector<CapClass>::iterator drop_class(
      std::vector<CapClass>::iterator cls);
  void bank_progress();  // advance every class's virtual clock to now
  void reallocate();     // recompute max-min rates + move the completion
  void on_completion_event();

  Engine& engine_;
  double capacity_;
  double interference_;
  std::vector<CapClass> classes_;  // non-empty, ascending cap
  std::vector<std::vector<Entry>> spare_heaps_;  // empty, capacity kept
  // Drained streams of the completion event being handled (empty between
  // events).
  std::vector<Entry> done_;
  StreamId next_id_ = 1;
  Time last_update_ = 0.0;
  EventId completion_event_ = kNoEvent;
  double allocated_rate_ = 0.0;          // sum of stream rates
  mutable double busy_integral_ = 0.0;   // ∫ allocated_rate dt
  mutable Time busy_mark_ = 0.0;
};

}  // namespace amoeba::sim
