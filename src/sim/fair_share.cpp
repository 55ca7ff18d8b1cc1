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

// Heap order: the least (finish, id) on top.
template <typename E>
bool finishes_before(const E& a, const E& b) {
  return a.finish < b.finish || (a.finish == b.finish && a.id < b.id);
}

// A 4-ary min-heap: shallower than a binary one, and a node's children
// share a cache line or two. Sifts carry the moving entry as a hole.
constexpr std::size_t kArity = 4;

template <typename E>
void sift_up(std::vector<E>& heap, std::size_t pos, const E e) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!finishes_before(e, heap[parent])) break;
    heap[pos] = heap[parent];
    pos = parent;
  }
  heap[pos] = e;
}

template <typename E>
void sift_down(std::vector<E>& heap, std::size_t pos, const E e) {
  const std::size_t n = heap.size();
  for (;;) {
    const std::size_t first = pos * kArity + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (finishes_before(heap[c], heap[best])) best = c;
    }
    if (!finishes_before(heap[best], e)) break;
    heap[pos] = heap[best];
    pos = best;
  }
  heap[pos] = e;
}

template <typename E>
void heap_push(std::vector<E>& heap, const E& e) {
  heap.emplace_back();
  sift_up(heap, heap.size() - 1, e);
}

// Remove the entry at `pos`; the tail entry fills its place.
template <typename E>
void heap_remove(std::vector<E>& heap, std::size_t pos) {
  const E last = heap.back();
  heap.pop_back();
  if (pos == heap.size()) return;  // removed the tail entry
  if (pos > 0 && finishes_before(last, heap[(pos - 1) / kArity])) {
    sift_up(heap, pos, last);
  } else {
    sift_down(heap, pos, last);
  }
}

}  // namespace

FairShareResource::FairShareResource(Engine& engine, double capacity,
                                     double interference)
    : engine_(engine), capacity_(capacity), interference_(interference) {
  AMOEBA_EXPECTS_MSG(capacity > 0.0, "resource capacity must be positive");
  AMOEBA_EXPECTS_MSG(interference >= 0.0, "interference must be >= 0");
  last_update_ = engine_.now();
  busy_mark_ = engine_.now();
}

FairShareResource::~FairShareResource() {
  if (completion_event_ != kNoEvent) engine_.cancel(completion_event_);
}

StreamId FairShareResource::open(double work, double cap, StreamSink& sink,
                                 std::uint32_t key, StreamTag tag) {
  AMOEBA_EXPECTS(work >= 0.0);
  bank_progress();
  CapClass& cls =
      class_for((cap <= 0.0) ? capacity_ : std::min(cap, capacity_));
  const StreamId id = next_id_++;
  heap_push(cls.heap, Entry{cls.served + work, id, &sink, key, tag});
  reallocate();
  return id;
}

double FairShareResource::close(StreamId id) {
  for (auto cls = classes_.begin(); cls != classes_.end(); ++cls) {
    const auto it = std::find_if(cls->heap.begin(), cls->heap.end(),
                                 [id](const Entry& e) { return e.id == id; });
    if (it == cls->heap.end()) continue;
    bank_progress();
    const double remaining = std::max(0.0, it->finish - cls->served);
    heap_remove(cls->heap, static_cast<std::size_t>(it - cls->heap.begin()));
    if (cls->heap.empty()) drop_class(cls);
    reallocate();
    return remaining;
  }
  return 0.0;
}

int FairShareResource::active() const noexcept {
  std::size_t n = 0;
  for (const CapClass& cls : classes_) n += cls.heap.size();
  return static_cast<int>(n);
}

double FairShareResource::pressure() const noexcept {
  double demand = 0.0;
  for (const CapClass& cls : classes_) {
    demand += cls.cap * static_cast<double>(cls.heap.size());
  }
  return demand / capacity_;
}

double FairShareResource::demand_of(StreamTag tag) const noexcept {
  if (tag == kUntagged) return 0.0;  // untagged demand belongs to no tag
  double demand = 0.0;
  for (const CapClass& cls : classes_) {
    for (const Entry& e : cls.heap) {
      if (e.tag == tag) demand += cls.cap;
    }
  }
  return demand;
}

double FairShareResource::pressure_of(StreamTag tag) const noexcept {
  return demand_of(tag) / capacity_;
}

double FairShareResource::external_pressure(StreamTag tag) const noexcept {
  return std::max(0.0, pressure() - pressure_of(tag));
}

double FairShareResource::rate_of(StreamId id) const noexcept {
  for (const CapClass& cls : classes_) {
    for (const Entry& e : cls.heap) {
      if (e.id == id) return cls.rate;
    }
  }
  return 0.0;
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

FairShareResource::CapClass& FairShareResource::class_for(double cap) {
  const auto it = std::lower_bound(
      classes_.begin(), classes_.end(), cap,
      [](const CapClass& cls, double c) { return cls.cap < c; });
  if (it != classes_.end() && it->cap == cap) return *it;
  // A new class starts its virtual clock at 0.
  std::vector<Entry> heap;
  if (!spare_heaps_.empty()) {
    heap = std::move(spare_heaps_.back());
    spare_heaps_.pop_back();
  }
  return *classes_.insert(it, CapClass{cap, 0.0, 0.0, std::move(heap)});
}

std::vector<FairShareResource::CapClass>::iterator
FairShareResource::drop_class(std::vector<CapClass>::iterator cls) {
  AMOEBA_INVARIANT(cls->heap.empty());
  spare_heaps_.push_back(std::move(cls->heap));
  return classes_.erase(cls);
}

void FairShareResource::bank_progress() {
  const Time now = engine_.now();
  const double dt = now - last_update_;
  if (dt > 0.0) {
    for (CapClass& cls : classes_) cls.served += cls.rate * dt;
    busy_capacity_seconds(now);  // extend utilization integral
  }
  last_update_ = now;
}

void FairShareResource::reallocate() {
  AMOEBA_PROF_SCOPE(kFairShare);
  // Progressive filling over the classes in ascending cap order: each of a
  // class's n streams takes min(cap, remaining_capacity / remaining_streams).
  // This is the standard max-min fair ("water-filling") allocation.
  busy_capacity_seconds(engine_.now());  // close integral at old rate
  double remaining_capacity = capacity_;
  std::size_t remaining_streams = static_cast<std::size_t>(active());
  allocated_rate_ = 0.0;
  for (CapClass& cls : classes_) {
    const double equal_share =
        remaining_capacity / static_cast<double>(remaining_streams);
    cls.rate = std::min(cls.cap, equal_share);
    const double share = cls.rate * static_cast<double>(cls.heap.size());
    allocated_rate_ += share;
    remaining_capacity -= share;
    remaining_streams -= cls.heap.size();
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

  // Move the single completion event to the earliest finish: each class's
  // heap top. The earliest of now + remaining / rate is now + the least
  // remaining / rate, because rounding the sum is monotone in the addend.
  bool due_now = false;
  double soonest = std::numeric_limits<double>::infinity();
  for (CapClass& cls : classes_) {
    cls.rate *= penalty;
    const double remaining = cls.heap.front().finish - cls.served;
    if (drained(remaining, cls.rate)) {
      due_now = true;
    } else if (cls.rate > 0.0) {
      soonest = std::min(soonest, remaining / cls.rate);
    }
  }
  const Time earliest = due_now ? engine_.now() : engine_.now() + soonest;
  if (!std::isfinite(earliest)) {
    if (completion_event_ != kNoEvent) engine_.cancel(completion_event_);
    completion_event_ = kNoEvent;
  } else if (completion_event_ != kNoEvent) {
    engine_.reschedule(completion_event_, earliest);
  } else {
    completion_event_ =
        engine_.schedule(earliest, [this] { on_completion_event(); });
  }
}

void FairShareResource::on_completion_event() {
  AMOEBA_PROF_SCOPE(kFairShare);
  completion_event_ = kNoEvent;
  bank_progress();
  // Pop every drained stream (ties complete together). Within a class the
  // heap top has the least remaining work, so draining stops at the first
  // top that still has work left.
  AMOEBA_INVARIANT(done_.empty());
  for (auto cls = classes_.begin(); cls != classes_.end();) {
    auto& heap = cls->heap;
    while (!heap.empty() &&
           drained(heap.front().finish - cls->served, cls->rate)) {
      done_.push_back(heap.front());
      heap_remove(heap, 0);
    }
    // An emptied class is dropped, which resets its virtual clock.
    cls = heap.empty() ? drop_class(cls) : cls + 1;
  }
  reallocate();
  // Call the sinks in id order, after internal state is consistent; a sink
  // may open new streams re-entrantly (never a completion event: that only
  // comes from the engine).
  if (done_.size() > 1) {
    std::sort(done_.begin(), done_.end(),
              [](const Entry& a, const Entry& b) { return a.id < b.id; });
  }
  for (const Entry& e : done_) e.sink->stream_done(e.key);
  done_.clear();
}

}  // namespace amoeba::sim
