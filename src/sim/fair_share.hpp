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
// share keep their cap, the slack is redistributed among the rest. Whenever
// the active set changes, every stream's accrued progress is banked and the
// earliest completion is (re)scheduled on the engine. Completion order under
// equal remaining work is deterministic (stream-id order).
//
// Storage invariant: live streams sit in one contiguous vector kept in
// ascending (cap, id) order, which is the water-filling order, so a
// reallocation is plain in-order passes with no sort, allocation or lookup.
// Ids only grow, so a new stream goes in after every stream whose cap is <=
// its own. The platforms open every stream on a resource with the same cap,
// which makes that a push_back.
//
// Determinism contract: the per-stream arithmetic and its order are part of
// the trace. That covers the water-filling recurrence, allocated_rate_
// summed in (cap, id) order, the interference penalty, progress banking and
// the drain epsilons, plus the sequence of engine schedule/cancel calls.
// Changing any of them moves trace hashes.
//
// The Amoeba controller never looks inside this class — it only observes
// latencies, exactly as on real hardware.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/engine.hpp"

namespace amoeba::sim {

using StreamId = std::uint64_t;

class FairShareResource {
 public:
  using CompletionFn = std::function<void()>;

  /// `capacity` is in work-units per second (cores, or bytes/s).
  /// `interference` >= 0 models throughput loss that grows with overall
  /// utilization (shared-cache / memory-bandwidth contention on a CPU):
  /// every stream's allocated rate is scaled by 1 / (1 + interference · U)
  /// where U is the pre-penalty utilization. 0 disables the effect
  /// (pure max-min sharing, appropriate for IO/NIC bandwidth).
  FairShareResource(Engine& engine, std::string name, double capacity,
                    double interference = 0.0);
  ~FairShareResource();
  FairShareResource(const FairShareResource&) = delete;
  FairShareResource& operator=(const FairShareResource&) = delete;

  /// Open a stream with `work` units to process, a per-stream rate cap
  /// (`cap <= 0` means "uncapped": the full capacity), and a completion
  /// callback fired (via the engine, at the exact completion instant) when
  /// the work drains. `work` == 0 completes at the current time but still
  /// via an engine event (never re-entrantly).
  ///
  /// `tag` optionally attributes the stream's demand to a client (the
  /// serverless platform tags streams with the owning function's name).
  /// Tagged demand is queryable via demand_of()/pressure_of(): this is the
  /// ground-truth per-tenant demand breakdown a multi-service cluster run
  /// needs to attribute cross-service pressure. Untagged streams cost
  /// nothing extra.
  StreamId open(double work, double cap, CompletionFn on_complete,
                std::string_view tag = {});

  /// Abort a stream before completion. Returns the remaining work (0 if the
  /// stream was unknown or already complete).
  double close(StreamId id);

  /// Number of currently active streams.
  [[nodiscard]] int active() const noexcept {
    return static_cast<int>(streams_.size());
  }

  /// Demand pressure: total capped demand rate divided by capacity.
  /// 1.0 means the resource is exactly saturated; >1 oversubscribed.
  [[nodiscard]] double pressure() const noexcept;

  /// Capped demand rate currently attributed to `tag` (0 for unknown tags).
  [[nodiscard]] double demand_of(std::string_view tag) const noexcept;

  /// `demand_of(tag) / capacity`: the tag's own share of pressure().
  [[nodiscard]] double pressure_of(std::string_view tag) const noexcept;

  /// Pressure from every *other* tenant: pressure() - pressure_of(tag).
  /// Untagged streams count as external to every tag.
  [[nodiscard]] double external_pressure(std::string_view tag) const noexcept;

  /// Snapshot of the per-tag demand breakdown (tags with live streams).
  /// Like pressure(), the tag queries sum over the live streams on each
  /// call: O(#streams), and off every hot path.
  [[nodiscard]] std::map<std::string, double, std::less<>> demand_by_tag()
      const;

  /// Instantaneous allocated rate of a stream (0 if unknown).
  [[nodiscard]] double rate_of(StreamId id) const noexcept;

  /// Fraction of capacity currently allocated (work-conserving utilization).
  [[nodiscard]] double utilization() const noexcept;

  /// Time-integral of utilization since construction. Lazily advances the
  /// integral to `now`, so it is also called internally for that side
  /// effect (hence no [[nodiscard]]).
  double busy_capacity_seconds(Time now) const noexcept;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] double capacity() const noexcept { return capacity_; }

 private:
  struct Stream {
    StreamId id = 0;
    double remaining = 0.0;
    double cap = 0.0;   // effective cap (already clamped to capacity)
    double rate = 0.0;  // current allocated rate
    std::string tag;    // demand attribution key ("" = untagged)
    CompletionFn on_complete;
  };

  void bank_progress();  // accrue work done since last reallocation
  void reallocate();     // recompute max-min rates + reschedule completion
  void on_completion_event();

  Engine& engine_;
  std::string name_;
  double capacity_;
  double interference_;
  std::vector<Stream> streams_;  // ascending (cap, id): water-filling order
  StreamId next_id_ = 1;
  Time last_update_ = 0.0;
  EventId completion_event_ = kNoEvent;
  double allocated_rate_ = 0.0;          // sum of stream rates
  mutable double busy_integral_ = 0.0;   // ∫ allocated_rate dt
  mutable Time busy_mark_ = 0.0;
};

}  // namespace amoeba::sim
