// Test-only reference model of FairShareResource: per-stream water-filling.
//
// This is the contention physics the simulator used before the virtual-clock
// processor-sharing rewrite, kept verbatim in arithmetic so tests can compare
// the production class against it. Every change to the active set banks
// each stream's progress (remaining -= rate·dt), recomputes max-min rates by
// progressive filling over the streams in ascending (cap, id) order, applies
// the utilization-dependent interference penalty and reschedules a single
// completion event at the earliest finish. Drained streams complete in id
// order. Everything is O(#streams) per event, which is why it lives here and
// not in src/.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "sim/engine.hpp"
#include "sim/fair_share.hpp"

namespace amoeba::sim::testing {

class ReferenceFairShare {
 public:
  /// Same arguments as FairShareResource.
  ReferenceFairShare(Engine& engine, double capacity,
                     double interference = 0.0)
      : engine_(engine),
        capacity_(capacity),
        interference_(interference),
        last_update_(engine.now()),
        busy_mark_(engine.now()) {
    AMOEBA_EXPECTS(capacity > 0.0);
    AMOEBA_EXPECTS(interference >= 0.0);
  }
  ~ReferenceFairShare() {
    if (completion_event_ != kNoEvent) engine_.cancel(completion_event_);
  }
  ReferenceFairShare(const ReferenceFairShare&) = delete;
  ReferenceFairShare& operator=(const ReferenceFairShare&) = delete;

  /// Same arguments as FairShareResource::open; the tag is not modelled.
  StreamId open(double work, double cap, StreamSink& sink, std::uint32_t key,
                StreamTag /*tag*/ = kUntagged) {
    AMOEBA_EXPECTS(work >= 0.0);
    bank_progress();
    Stream s;
    s.id = next_id_++;
    s.remaining = work;
    s.cap = (cap <= 0.0) ? capacity_ : std::min(cap, capacity_);
    s.sink = &sink;
    s.key = key;
    const auto at = std::upper_bound(
        streams_.begin(), streams_.end(), s.cap,
        [](double c, const Stream& other) { return c < other.cap; });
    const StreamId id = streams_.insert(at, std::move(s))->id;
    reallocate();
    return id;
  }

  double close(StreamId id) {
    const auto it = find(id);
    if (it == streams_.end()) return 0.0;
    bank_progress();
    const double remaining = it->remaining;
    streams_.erase(it);
    reallocate();
    return remaining;
  }

  [[nodiscard]] int active() const noexcept {
    return static_cast<int>(streams_.size());
  }

  [[nodiscard]] double rate_of(StreamId id) const noexcept {
    const auto it = find(id);
    return it == streams_.end() ? 0.0 : it->rate;
  }

  [[nodiscard]] double utilization() const noexcept {
    return allocated_rate_ / capacity_;
  }

  double busy_capacity_seconds(Time now) const noexcept {
    if (now > busy_mark_) {
      busy_integral_ += allocated_rate_ * (now - busy_mark_);
      busy_mark_ = now;
    }
    return busy_integral_;
  }

 private:
  struct Stream {
    StreamId id = 0;
    double remaining = 0.0;
    double cap = 0.0;
    double rate = 0.0;
    StreamSink* sink = nullptr;
    std::uint32_t key = 0;
  };

  static constexpr double kWorkEpsilon = 1e-12;
  static constexpr double kTimeEpsilon = 1e-9;

  static bool drained(double remaining, double rate) {
    return remaining <= kWorkEpsilon ||
           (rate > 0.0 && remaining <= rate * kTimeEpsilon);
  }

  [[nodiscard]] std::vector<Stream>::const_iterator find(
      StreamId id) const {
    return std::find_if(streams_.begin(), streams_.end(),
                        [id](const Stream& s) { return s.id == id; });
  }
  std::vector<Stream>::iterator find(StreamId id) {
    return std::find_if(streams_.begin(), streams_.end(),
                        [id](const Stream& s) { return s.id == id; });
  }

  void bank_progress() {
    const Time now = engine_.now();
    const double dt = now - last_update_;
    if (dt > 0.0) {
      for (Stream& s : streams_) {
        s.remaining = std::max(0.0, s.remaining - s.rate * dt);
      }
      busy_capacity_seconds(now);
    }
    last_update_ = now;
  }

  void reallocate() {
    busy_capacity_seconds(engine_.now());
    double remaining_capacity = capacity_;
    std::size_t remaining_streams = streams_.size();
    allocated_rate_ = 0.0;
    for (Stream& s : streams_) {
      const double equal_share =
          remaining_capacity / static_cast<double>(remaining_streams);
      s.rate = std::min(s.cap, equal_share);
      allocated_rate_ += s.rate;
      remaining_capacity -= s.rate;
      --remaining_streams;
    }
    double penalty = 1.0;
    if (interference_ > 0.0 && allocated_rate_ > 0.0) {
      penalty = 1.0 / (1.0 + interference_ * (allocated_rate_ / capacity_));
      allocated_rate_ *= penalty;
    }
    if (completion_event_ != kNoEvent) {
      engine_.cancel(completion_event_);
      completion_event_ = kNoEvent;
    }
    bool due_now = false;
    double soonest = std::numeric_limits<double>::infinity();
    for (Stream& s : streams_) {
      s.rate *= penalty;
      if (drained(s.remaining, s.rate)) {
        due_now = true;
      } else if (s.rate > 0.0) {
        soonest = std::min(soonest, s.remaining / s.rate);
      }
    }
    const Time earliest = due_now ? engine_.now() : engine_.now() + soonest;
    if (std::isfinite(earliest)) {
      completion_event_ =
          engine_.schedule(earliest, [this] { on_completion_event(); });
    }
  }

  void on_completion_event() {
    completion_event_ = kNoEvent;
    bank_progress();
    std::vector<Stream> done;
    auto kept = streams_.begin();
    for (auto it = streams_.begin(); it != streams_.end(); ++it) {
      if (drained(it->remaining, it->rate)) {
        done.push_back(*it);
      } else {
        if (kept != it) *kept = std::move(*it);
        ++kept;
      }
    }
    streams_.erase(kept, streams_.end());
    reallocate();
    std::sort(done.begin(), done.end(),
              [](const Stream& a, const Stream& b) { return a.id < b.id; });
    for (const Stream& s : done) s.sink->stream_done(s.key);
  }

  Engine& engine_;
  double capacity_;
  double interference_;
  std::vector<Stream> streams_;  // ascending (cap, id): water-filling order
  StreamId next_id_ = 1;
  Time last_update_;
  EventId completion_event_ = kNoEvent;
  double allocated_rate_ = 0.0;
  mutable double busy_integral_ = 0.0;
  mutable Time busy_mark_;
};

}  // namespace amoeba::sim::testing
