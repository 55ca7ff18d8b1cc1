#include "sim/fair_share.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>
#include "obs/profiler.hpp"

namespace amoeba::sim {

namespace {
// Work below this many units is considered drained (guards float error for
// tiny work amounts).
constexpr double kWorkEpsilon = 1e-12;
// A stream whose projected remaining time is below this is complete. Work
// units span wildly different scales (core-seconds vs bytes), so the
// robust epsilon is in *time*: double rounding on a completion timestamp
// can leave remaining work worth up to ~ns of service, and rescheduling it
// would advance the clock by less than one ulp — an infinite event loop.
constexpr double kTimeEpsilon = 1e-9;

bool drained(double remaining, double rate) {
  return remaining <= kWorkEpsilon ||
         (rate > 0.0 && remaining <= rate * kTimeEpsilon);
}

}  // namespace

FairShareResource::FairShareResource(Engine& engine, std::string name,
                                     double capacity, double interference)
    : engine_(engine),
      name_(std::move(name)),
      capacity_(capacity),
      interference_(interference) {
  AMOEBA_EXPECTS_MSG(capacity > 0.0, "resource capacity must be positive");
  AMOEBA_EXPECTS_MSG(interference >= 0.0, "interference must be >= 0");
  last_update_ = engine_.now();
  busy_mark_ = engine_.now();
}

FairShareResource::~FairShareResource() {
  if (completion_event_ != kNoEvent) engine_.cancel(completion_event_);
}

StreamId FairShareResource::open(double work, double cap,
                                 CompletionFn on_complete,
                                 std::string_view tag) {
  AMOEBA_EXPECTS(work >= 0.0);
  AMOEBA_EXPECTS(on_complete != nullptr);
  bank_progress();
  Stream s;
  s.id = next_id_++;
  s.remaining = work;
  s.cap = (cap <= 0.0) ? capacity_ : std::min(cap, capacity_);
  s.tag = std::string(tag);
  s.on_complete = std::move(on_complete);
  // The new id exceeds every live one, so (cap, id) order puts the stream
  // after every stream whose cap is <= its own.
  const auto at = std::upper_bound(
      streams_.begin(), streams_.end(), s.cap,
      [](double c, const Stream& other) { return c < other.cap; });
  const StreamId id = streams_.insert(at, std::move(s))->id;
  reallocate();
  return id;
}

double FairShareResource::close(StreamId id) {
  const auto it = std::find_if(streams_.begin(), streams_.end(),
                               [id](const Stream& s) { return s.id == id; });
  if (it == streams_.end()) return 0.0;
  bank_progress();
  const double remaining = it->remaining;
  streams_.erase(it);
  reallocate();
  return remaining;
}

double FairShareResource::pressure() const noexcept {
  double demand = 0.0;
  for (const Stream& s : streams_) demand += s.cap;
  return demand / capacity_;
}

double FairShareResource::demand_of(std::string_view tag) const noexcept {
  if (tag.empty()) return 0.0;  // untagged demand belongs to no tag
  double demand = 0.0;
  for (const Stream& s : streams_) {
    if (s.tag == tag) demand += s.cap;
  }
  return demand;
}

double FairShareResource::pressure_of(std::string_view tag) const noexcept {
  return demand_of(tag) / capacity_;
}

double FairShareResource::external_pressure(
    std::string_view tag) const noexcept {
  return std::max(0.0, pressure() - pressure_of(tag));
}

std::map<std::string, double, std::less<>> FairShareResource::demand_by_tag()
    const {
  std::map<std::string, double, std::less<>> out;
  for (const Stream& s : streams_) {
    if (!s.tag.empty()) out[s.tag] += s.cap;
  }
  return out;
}

double FairShareResource::rate_of(StreamId id) const noexcept {
  const auto it = std::find_if(streams_.begin(), streams_.end(),
                               [id](const Stream& s) { return s.id == id; });
  return it == streams_.end() ? 0.0 : it->rate;
}

double FairShareResource::utilization() const noexcept {
  return allocated_rate_ / capacity_;
}

double FairShareResource::busy_capacity_seconds(Time now) const noexcept {
  // Lazily extend the integral to `now` at the current allocation rate.
  if (now > busy_mark_) {
    busy_integral_ += allocated_rate_ * (now - busy_mark_);
    busy_mark_ = now;
  }
  return busy_integral_;
}

void FairShareResource::bank_progress() {
  const Time now = engine_.now();
  const double dt = now - last_update_;
  if (dt > 0.0) {
    for (Stream& s : streams_) {
      s.remaining = std::max(0.0, s.remaining - s.rate * dt);
    }
    busy_capacity_seconds(now);  // extend utilization integral
  }
  last_update_ = now;
}

void FairShareResource::reallocate() {
  AMOEBA_PROF_SCOPE(kFairShare);
  // Progressive filling: streams_ is already in ascending (cap, id) order;
  // each takes min(cap, remaining_capacity / remaining_streams). This is the
  // standard max-min fair ("water-filling") allocation.
  busy_capacity_seconds(engine_.now());  // close integral at old rate
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

  // Utilization-dependent interference penalty (shared caches / memory
  // bandwidth): everyone slows together as the resource fills up. Without
  // it the factor is exactly 1, which leaves every rate bit-identical.
  double penalty = 1.0;
  if (interference_ > 0.0 && allocated_rate_ > 0.0) {
    const double utilization = allocated_rate_ / capacity_;
    penalty = 1.0 / (1.0 + interference_ * utilization);
    allocated_rate_ *= penalty;
  }

  // Reschedule the single completion event at the earliest finish. The
  // earliest of now + remaining / rate is now + the least remaining / rate,
  // because rounding the sum is monotone in the addend.
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

void FairShareResource::on_completion_event() {
  AMOEBA_PROF_SCOPE(kFairShare);
  completion_event_ = kNoEvent;
  bank_progress();
  // Compact every drained stream out in one pass (ties complete together).
  std::vector<std::pair<StreamId, CompletionFn>> done;
  auto kept = streams_.begin();
  for (auto it = streams_.begin(); it != streams_.end(); ++it) {
    if (drained(it->remaining, it->rate)) {
      done.emplace_back(it->id, std::move(it->on_complete));
    } else {
      if (kept != it) *kept = std::move(*it);
      ++kept;
    }
  }
  streams_.erase(kept, streams_.end());
  reallocate();
  // Fire callbacks in id order, after internal state is consistent;
  // callbacks may open new streams re-entrantly.
  std::sort(done.begin(), done.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [id, fn] : done) fn();
}

}  // namespace amoeba::sim
