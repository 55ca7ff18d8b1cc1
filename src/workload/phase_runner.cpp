#include "workload/phase_runner.hpp"

#include <utility>

namespace amoeba::workload {

PhaseRunner::PhaseRunner(sim::Engine& engine, FinishFn finish)
    : engine_(engine), finish_(std::move(finish)) {
  AMOEBA_EXPECTS(finish_ != nullptr);
}

void PhaseRunner::start(Query&& query) {
  AMOEBA_EXPECTS(query.on_done != nullptr);
  for (const Phase& phase : query.phases) {
    AMOEBA_EXPECTS_MSG(
        phase.work <= 0.0 ||
            (phase.resource != nullptr && phase.stamp != nullptr),
        "a phase with work needs a resource and a stamp");
  }
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.query = std::move(query);
  s.next = 0;
  const double delay = s.query.record.breakdown.overhead_s;
  if (delay > 0.0) {
    engine_.schedule_in(delay, [this, slot] { walk(slot); });
  } else {
    walk(slot);
  }
}

void PhaseRunner::walk(std::uint32_t slot) {
  Slot& s = slots_[slot];
  for (; s.next < kMaxPhases; ++s.next) {
    const Phase& phase = s.query.phases[s.next];
    if (phase.work <= 0.0) continue;
    s.phase_start = engine_.now();
    phase.resource->open(phase.work, phase.cap, *this, slot, s.query.tag);
    return;
  }
  complete(slot);
}

void PhaseRunner::stream_done(std::uint32_t slot) {
  Slot& s = slots_[slot];
  // Every stamp may accumulate: a field no earlier phase touched is 0.0,
  // and 0.0 + x == x.
  s.query.record.breakdown.*s.query.phases[s.next].stamp +=
      engine_.now() - s.phase_start;
  ++s.next;
  walk(slot);
}

void PhaseRunner::complete(std::uint32_t slot) {
  // Out of the table first: the finish step may start queries that take
  // this slot or grow the table.
  Query query = std::move(slots_[slot].query);
  free_slots_.push_back(slot);
  query.record.completion = engine_.now();
  finish_(query);
}

}  // namespace amoeba::workload
