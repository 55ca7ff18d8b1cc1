// The one walk of a query through its resource phases (paper Fig. 4).
//
// Both platforms split a query the same way: a fixed overhead delay, then
// resource phases one after another, each a stream of work on a shared
// `FairShareResource` whose duration is added to one field of the query's
// `LatencyBreakdown`. Here a query is data: its record, its completion
// observer and up to kMaxPhases phases. The serverless platform walks code
// load (disk) -> execute (cpu -> io -> net) -> result post (net); a VM
// walks execute only.
//
// In-flight queries live in a slot table reused across queries. The runner
// is the `sim::StreamSink` of every stream it opens, with the query's slot
// as the key, and a delay event captures only (runner, slot), which fits
// `sim::InlineCallback`'s inline buffer: once the table has grown to the
// peak in-flight count, a walk allocates nothing of its own (the resources'
// own bookkeeping still may).
//
// Trace contract (the platforms' trace hashes depend on it): the delay is
// an engine event only when it is > 0; a phase whose work is <= 0 is
// skipped at once, with no stream and no event; phases open in table
// order, each with its own cap and the query's tag. When the last phase
// drains, the runner stamps `completion`, moves the query out of its slot,
// frees the slot and hands the query to the owner's finish step, which may
// start new queries.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/engine.hpp"
#include "sim/fair_share.hpp"
#include "workload/query.hpp"

namespace amoeba::workload {

class PhaseRunner final : private sim::StreamSink {
 public:
  static constexpr std::size_t kMaxPhases = 5;

  /// One resource phase: a stream of `work` on `resource` at a per-stream
  /// rate cap of `cap`; its duration is added to `record.breakdown.*stamp`.
  /// A default phase has no work, so unused table entries are skipped.
  struct Phase {
    sim::FairShareResource* resource = nullptr;
    double work = 0.0;
    double cap = 0.0;
    double LatencyBreakdown::*stamp = nullptr;
  };

  struct Query {
    /// The delay waited out before the first phase is
    /// `record.breakdown.overhead_s`.
    QueryRecord record;
    QueryCompletionFn on_done;
    std::array<Phase, kMaxPhases> phases{};
    sim::StreamTag tag = sim::kUntagged;  ///< carried by every phase's stream
    std::uint64_t key = 0;  ///< the owner's handle, for its finish step
  };

  /// The owner's finish step: gets the completed query, already out of the
  /// table, so it may start new ones.
  using FinishFn = std::function<void(Query&)>;

  PhaseRunner(sim::Engine& engine, FinishFn finish);
  PhaseRunner(const PhaseRunner&) = delete;
  PhaseRunner& operator=(const PhaseRunner&) = delete;

  /// Begin walking `query` now: wait out its delay, then run its phases.
  /// The query is moved into its slot.
  void start(Query&& query);

  /// Queries started and not yet handed to the finish step.
  [[nodiscard]] std::size_t live() const noexcept {
    return slots_.size() - free_slots_.size();
  }

 private:
  struct Slot {
    Query query;
    std::size_t next = 0;        // index of the phase running or to run
    sim::Time phase_start = 0.0;
  };

  void walk(std::uint32_t slot);  // open the next phase with work
  // A phase's stream drained: stamp the phase, walk on.
  void stream_done(std::uint32_t slot) override;
  void complete(std::uint32_t slot);  // free the slot, call finish_

  sim::Engine& engine_;
  FinishFn finish_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace amoeba::workload
