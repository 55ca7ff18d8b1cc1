// Microservice call graphs — DAGs of stages sharing one end-to-end SLO.
//
// Real products are not single microservices: a user query enters a root
// service and fans out through a DAG of downstream stages (search, ads,
// render, ...) whose *critical-path* latency is what the user experiences.
// `CallGraph` describes such a DAG: each stage carries a FunctionProfile
// (the per-stage workload) and a deployment pin; edges are AND-joins (a
// stage starts once every parent finished for that query).
//
// Canonical form: build() reduces the declared graph to a canonical object
// that depends only on *content* (profiles, pins, structure), never on
// stage labels or sibling declaration order. Stages are sorted by
// (longest-path depth, iterated content hash), which is topological, and
// internal service names derive from the canonical index. Two builders
// declaring isomorphic graphs therefore produce byte-identical CallGraphs,
// extending the repo's ordering discipline (PR 6) to DAG inputs: relabeling
// stages or permuting sibling declarations cannot change a simulation's
// event trace. Automorphic stages (identical content AND indistinguishable
// structure) may swap canonical indices across declaration orders, but a
// swap between indistinguishable stages yields the same built object.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "workload/function_profile.hpp"

namespace amoeba::workload {

/// Deployment constraint of one stage (consumed by the exp driver).
enum class StagePin : std::uint8_t {
  kManaged,         ///< full Amoeba control loop decides the platform
  kIaasOnly,        ///< stays on its just-enough VM (never switches)
  kServerlessOnly,  ///< biased to FaaS as soon as the controller allows
};

[[nodiscard]] const char* to_string(StagePin p) noexcept;

struct CallGraphStage {
  std::string label;        ///< user-facing id; never reaches the simulation
  FunctionProfile profile;  ///< per-stage workload (one invocation per query)
  StagePin pin = StagePin::kManaged;
};

class CallGraph {
 public:
  class Builder;

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(stages_.size());
  }

  /// Stage by canonical index (0 <= k < size()).
  [[nodiscard]] const CallGraphStage& stage(int k) const;

  /// Internal service name of stage k: "<profile.name>@s<k>". Structure-
  /// derived, so the simulated name ordering is label-independent.
  [[nodiscard]] const std::string& service_name(int k) const;

  [[nodiscard]] const std::vector<int>& parents(int k) const;
  [[nodiscard]] const std::vector<int>& children(int k) const;
  [[nodiscard]] const std::vector<int>& roots() const noexcept {
    return roots_;
  }
  [[nodiscard]] const std::vector<int>& leaves() const noexcept {
    return leaves_;
  }

  /// Maximum number of stages on any root-to-leaf path. Canonical order is
  /// sorted by longest-path depth first, so iteration order is topological.
  [[nodiscard]] int max_path_stages() const noexcept {
    return max_path_stages_;
  }

  /// For per-stage weights w (w[k] > 0), the maximum root-to-leaf path sum
  /// passing *through* each stage: S_k = up_k + w_k + down_k. The budget
  /// decomposer's denominator.
  [[nodiscard]] std::vector<double> path_sums_through(
      const std::vector<double>& w) const;

  /// Content hash of the canonical form (profiles, pins, edges). Equal for
  /// isomorphic declarations; label- and declaration-order-independent.
  [[nodiscard]] std::uint64_t structure_hash() const noexcept {
    return structure_hash_;
  }

 private:
  friend class Builder;
  CallGraph() = default;

  std::vector<CallGraphStage> stages_;     ///< canonical order
  std::vector<std::string> service_names_;
  std::vector<std::vector<int>> parents_;  ///< sorted canonical ids
  std::vector<std::vector<int>> children_;
  std::vector<int> roots_;
  std::vector<int> leaves_;
  int max_path_stages_ = 0;
  std::uint64_t structure_hash_ = 0;
};

/// Declares stages and edges in any order; build() canonicalizes.
class CallGraph::Builder {
 public:
  /// Returns a declaration handle for add_edge. Labels must be unique and
  /// non-empty; the profile must validate.
  int add_stage(std::string label, FunctionProfile profile,
                StagePin pin = StagePin::kManaged);

  /// Directed dependency: queries flow from -> to (AND-join at `to`).
  void add_edge(int from, int to);

  /// Validate (non-empty, acyclic, no self/duplicate edges) and produce
  /// the canonical CallGraph.
  [[nodiscard]] CallGraph build() const;

 private:
  struct DeclStage {
    std::string label;
    FunctionProfile profile;
    StagePin pin;
  };
  std::vector<DeclStage> stages_;
  std::vector<std::pair<int, int>> edges_;
};

}  // namespace amoeba::workload
