// Root-to-leaf path enumeration the call-graph tests brute-force against.
//
// The library never lists paths: CallGraph::path_sums_through folds the
// heaviest chain through each stage in two passes over the canonical
// order. The path-sum and budget tests check that fold against every path
// enumerated here, depth first over the public roots() and children().
#pragma once

#include <vector>

#include "workload/call_graph.hpp"

namespace amoeba::workload::testing {

/// Every root-to-leaf path of `g` as a list of canonical stage indices.
/// The adjacency lists are canonical, so the path order is too.
[[nodiscard]] inline std::vector<std::vector<int>> paths(const CallGraph& g) {
  std::vector<std::vector<int>> out;
  std::vector<int> prefix;
  auto walk = [&](auto&& self, int v) -> void {
    prefix.push_back(v);
    const std::vector<int>& kids = g.children(v);
    if (kids.empty()) {
      out.push_back(prefix);
    } else {
      for (const int c : kids) self(self, c);
    }
    prefix.pop_back();
  };
  for (const int r : g.roots()) walk(walk, r);
  return out;
}

}  // namespace amoeba::workload::testing
