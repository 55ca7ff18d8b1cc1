// Serverless (FaaS) platform model — the OpenWhisk stand-in.
//
// Queries queue FIFO per function; idle warm containers are reused (LIFO),
// otherwise a cold start begins if the pool has memory (evicting the
// least-recently-used idle container of another function when it does not).
// Like OpenWhisk's scheduler, an arrival that triggers a cold start is
// BOUND to the container being created for it and waits out the full boot
// even if another container frees up earlier — this is precisely why the
// paper's prewarm strategy matters (§V-A / Fig. 16).
// An invocation runs through the phases of paper Fig. 4:
//
//   [queue] -> [cold start?] -> processing overhead -> code load (disk)
//           -> execute (cpu -> io -> net) -> result post (net) -> done
//
// The platform writes that phase table into a workload::PhaseRunner::Query
// and the runner walks it (the same walk a VM uses); the platform keeps
// only the finish step: stats, the crash draw, destroying or releasing the
// container, the completion observer, then re-pumping the queue. All
// resource-bound phases draw on the node's shared FairShareResources, so
// cross-function interference, latency surfaces, and the no-fixed-switch-
// load effect (paper §II-D) all emerge from the physics rather than being
// scripted.
//
// A function's name is how a user addresses the platform; below that edge
// everything uses the FunctionId register_function() returns. The platform
// keeps one record per function in a vector indexed by that id, the pool
// keeps its own per-function record under the same id, and every phase's
// fair-share stream is tagged with it. find_function() is the one name
// lookup.
#pragma once

#include <array>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/observer.hpp"
#include "serverless/container_pool.hpp"
#include "sim/engine.hpp"
#include "sim/fair_share.hpp"
#include "sim/random.hpp"
#include "stats/gauge.hpp"
#include "workload/function_profile.hpp"
#include "workload/phase_runner.hpp"
#include "workload/query.hpp"

namespace amoeba::serverless {

struct PlatformConfig {
  double cores = 40.0;              ///< Table II: 40-core node
  double pool_memory_mb = 32768.0;  ///< memory budget for containers
  double disk_bps = 2.0e9;          ///< NVMe bandwidth
  double net_bps = 3.125e9;         ///< 25 Gb/s NIC
  double container_core_cap = 1.0;  ///< one core per container
  /// CPU interference coefficient (shared LLC / memory bandwidth on the
  /// multi-tenant node): per-stream compute rate is scaled by
  /// 1/(1 + coeff · utilization). This is what makes the paper's
  /// "CPU-Memory" pressure degrade latency gradually rather than only at
  /// full core saturation.
  double cpu_interference = 0.0;
  /// Fraction of raw device bandwidth a containerized function actually
  /// achieves (overlay-fs / virtualization tax; Wang et al., ATC'18,
  /// measured serverless IO well below VM IO). 1.0 = no tax.
  double io_efficiency = 1.0;
  double cold_start_mean_s = 1.0;   ///< paper §V-A: "one to three seconds"
  double cold_start_cv = 0.25;
  double keep_alive_s = 60.0;       ///< warm-container TTL
  /// Failure injection: probability that a container dies after finishing a
  /// query, forcing an "accidental" cold start later (paper §VI-B).
  double crash_after_completion_p = 0.0;

  void validate() const;
};

struct FunctionStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t cold_hits = 0;
  std::uint64_t boot_failures = 0;  ///< injected cold-start failures
  /// Containers a prewarm() call asked for but could not start (pool memory
  /// exhausted or the per-function n_max reached) — the admission-arbitration
  /// "deferred" signal a cluster run surfaces per service.
  std::uint64_t prewarm_denied = 0;
  double cpu_core_seconds = 0.0;    ///< actual compute consumed
};

class ServerlessPlatform {
 public:
  ServerlessPlatform(sim::Engine& engine, PlatformConfig cfg, sim::Rng rng);

  /// Register a function before submitting queries for it; the returned
  /// handle addresses it from then on. Ids are dense, in registration
  /// order, and names are unique. `max_containers` == 0 means "bounded
  /// only by pool memory" (otherwise it is the paper's per-function n_max).
  FunctionId register_function(const workload::FunctionProfile& profile,
                               int max_containers = 0);

  /// The handle of a registered name, or nullopt.
  [[nodiscard]] std::optional<FunctionId> find_function(
      const std::string& name) const;
  [[nodiscard]] std::size_t function_count() const noexcept {
    return functions_.size();
  }

  /// Attach the observability sink (non-owning; nullptr disables). Each
  /// container boot then becomes an async span on "svc:<fn>/pool".
  void set_observer(amoeba::obs::Observer* observer) { obs_ = observer; }

  /// Attach the fault injector to the container pool (non-owning; nullptr
  /// disables). Failed boots re-queue any bound query and re-pump.
  void set_fault_injector(sim::FaultInjector* faults) noexcept {
    pool_.set_fault_injector(faults);
  }

  /// Submit one query; `on_done` fires at completion with the full record.
  void submit(FunctionId fn, workload::QueryCompletionFn on_done);

  /// Ensure at least `count` containers (idle + starting + busy) exist for
  /// `fn`, cold-starting the difference. Returns how many new containers
  /// actually began starting (may be limited by memory).
  int prewarm(FunctionId fn, int count);

  /// Release the function's resources eagerly (paper §V-B shutdown signal
  /// S_sd): destroys its idle containers now, and containers finishing
  /// later are destroyed instead of kept warm, until unretire().
  void retire(FunctionId fn);
  void unretire(FunctionId fn);
  [[nodiscard]] bool retired(FunctionId fn) const;

  /// Abort-path reclamation: destroy the function's idle containers and any
  /// starting containers not bound to a query (those still serve the query
  /// that caused them). Returns how many containers were destroyed.
  int release_prewarmed(FunctionId fn);

  /// Containers of `fn` that are idle or still starting — the "warm
  /// capacity" the hybrid engine waits on before switching.
  [[nodiscard]] PoolCounts counts(FunctionId fn) const {
    return pool_.counts(fn);  // the pool checks the id
  }
  [[nodiscard]] PoolCounts total_counts() const {
    return pool_.total_counts();
  }
  [[nodiscard]] const FunctionStats& stats(FunctionId fn) const;

  /// Per-function resource usage integrals for Fig. 11/13/14 accounting.
  [[nodiscard]] double cpu_core_seconds(FunctionId fn) const;
  double memory_mb_seconds(FunctionId fn, sim::Time now);

  /// Ground-truth per-function demand attribution over {cpu, disk, net},
  /// each as a fraction of that resource's capacity. Fed by the stream tags
  /// every invocation phase carries, so it reflects what is *live* right
  /// now. Tests/validation only — the controller estimates pressure through
  /// meters, exactly as on real hardware.
  [[nodiscard]] std::array<double, 3> true_pressure_of(FunctionId fn) const;
  /// Pressure on each resource caused by everything except `fn` — the live
  /// aggregate load of co-located tenants.
  [[nodiscard]] std::array<double, 3> true_external_pressure(
      FunctionId fn) const;

  /// Ground-truth busy-capacity integrals (work served so far); their time
  /// derivative over a window is the resource's average busy fraction.
  double true_cpu_busy_integral(sim::Time now) const {
    return cpu_.busy_capacity_seconds(now) / cfg_.cores;
  }
  double true_disk_busy_integral(sim::Time now) const {
    return disk_.busy_capacity_seconds(now) / cfg_.disk_bps;
  }
  double true_net_busy_integral(sim::Time now) const {
    return net_.busy_capacity_seconds(now) / cfg_.net_bps;
  }

  [[nodiscard]] const PlatformConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] ContainerPool& pool() noexcept { return pool_; }

 private:
  struct Pending {
    std::uint64_t id = 0;
    sim::Time arrival = 0.0;
    workload::QueryCompletionFn on_done;
  };

  /// A query bound to a cold-starting container (OpenWhisk semantics):
  /// served when that container boots, not before. `container` is 0 when
  /// the slot is empty.
  struct Bound {
    ContainerId container = 0;
    Pending pending;
  };

  struct FunctionState {
    FunctionId id{};
    workload::FunctionProfile profile;
    int max_containers = 0;  // 0 = unlimited
    bool retired = false;
    std::deque<Pending> queue;
    FunctionStats stats;
  };

  /// The bound-query slot of container `cid`, reused with its pool row.
  Bound& bound_slot(ContainerId cid);
  /// Take the query bound to `cid`, if any, emptying its slot.
  std::optional<Pending> take_bound(ContainerId cid);

  void on_container_ready(FunctionId fn, ContainerId cid);
  void on_container_failed(FunctionId fn, ContainerId cid);
  void trace_container(FunctionId fn, ContainerId cid, bool begin);

  // Every public method that takes an id checks known(id) on entry; ids
  // captured by the platform's own callbacks are indexed unchecked.
  [[nodiscard]] bool known(FunctionId fn) const noexcept {
    return static_cast<std::size_t>(fn) < functions_.size();
  }
  FunctionState& record(FunctionId fn) {
    return functions_[static_cast<std::size_t>(fn)];
  }
  const FunctionState& record(FunctionId fn) const {
    return functions_[static_cast<std::size_t>(fn)];
  }

  /// Start one container for `st` (room already made). Returns its id, or
  /// nullopt if the pool refused it.
  std::optional<ContainerId> start_container(FunctionState& st);

  /// Try to move queued queries of `fn` onto containers; cold-start new
  /// containers when allowed.
  void pump(FunctionId fn);

  /// True if one more container may start for this function right now
  /// (memory + n_max), evicting an idle foreign container if necessary.
  bool try_make_room(FunctionState& st);

  void run_invocation(FunctionState& st, ContainerId cid, Pending pending);
  /// The runner's finish step: the query's tag is its FunctionId and its
  /// key the serving container.
  void finish_invocation(workload::PhaseRunner::Query& q);

  double sample_cold_start();

  sim::Engine& engine_;
  PlatformConfig cfg_;
  sim::Rng rng_;
  sim::FairShareResource cpu_;
  sim::FairShareResource disk_;
  sim::FairShareResource net_;
  ContainerPool pool_;
  workload::PhaseRunner runner_;
  std::vector<FunctionState> functions_;  ///< indexed by FunctionId
  /// One bound-query slot per container, indexed by its pool row.
  std::vector<Bound> bound_;
  /// The one name index: the API edge's find_function().
  std::map<std::string, FunctionId, std::less<>> ids_by_name_;
  amoeba::obs::Observer* obs_ = nullptr;
  std::uint64_t next_query_id_ = 1;
};

}  // namespace amoeba::serverless
