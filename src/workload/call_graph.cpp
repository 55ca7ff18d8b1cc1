#include "workload/call_graph.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace amoeba::workload {

namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t w) {
  h ^= w + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t hash_string(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t hash_double(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Hash of everything about a stage except its label and its position:
/// the profile content and the pin. Two stages with equal content hashes
/// are interchangeable as far as the simulation is concerned.
std::uint64_t content_hash(const FunctionProfile& p, StagePin pin) {
  std::uint64_t h = hash_string(p.name);
  h = mix(h, hash_double(p.exec.cpu_seconds));
  h = mix(h, hash_double(p.exec.io_bytes));
  h = mix(h, hash_double(p.exec.net_bytes));
  h = mix(h, hash_double(p.code_bytes));
  h = mix(h, hash_double(p.result_bytes));
  h = mix(h, hash_double(p.platform_overhead_s));
  h = mix(h, hash_double(p.rpc_overhead_s));
  h = mix(h, hash_double(p.memory_mb));
  h = mix(h, hash_double(p.cpu_cv));
  h = mix(h, hash_double(p.qos_target_s));
  h = mix(h, hash_double(p.peak_load_qps));
  h = mix(h, static_cast<std::uint64_t>(pin));
  return h;
}

/// Combine a multiset of neighbour hashes order-independently-then-
/// deterministically: sort, then fold.
std::uint64_t fold_sorted(std::vector<std::uint64_t> hs) {
  std::sort(hs.begin(), hs.end());
  std::uint64_t h = 0x51ed2701a2b4c693ULL;
  for (const std::uint64_t v : hs) h = mix(h, v);
  return h;
}

}  // namespace

const char* to_string(StagePin p) noexcept {
  switch (p) {
    case StagePin::kManaged: return "managed";
    case StagePin::kIaasOnly: return "iaas_only";
    case StagePin::kServerlessOnly: return "serverless_only";
  }
  return "?";
}

const CallGraphStage& CallGraph::stage(int k) const {
  AMOEBA_EXPECTS_VALS(k >= 0 && k < size(), k);
  return stages_[static_cast<std::size_t>(k)];
}

const std::string& CallGraph::service_name(int k) const {
  AMOEBA_EXPECTS_VALS(k >= 0 && k < size(), k);
  return service_names_[static_cast<std::size_t>(k)];
}

const std::vector<int>& CallGraph::parents(int k) const {
  AMOEBA_EXPECTS_VALS(k >= 0 && k < size(), k);
  return parents_[static_cast<std::size_t>(k)];
}

const std::vector<int>& CallGraph::children(int k) const {
  AMOEBA_EXPECTS_VALS(k >= 0 && k < size(), k);
  return children_[static_cast<std::size_t>(k)];
}

std::vector<double> CallGraph::path_sums_through(
    const std::vector<double>& w) const {
  AMOEBA_EXPECTS_VALS(static_cast<int>(w.size()) == size(), w.size(), size());
  for (const double wi : w) AMOEBA_EXPECTS_VALS(wi > 0.0, wi);
  const std::size_t n = stages_.size();
  // Canonical order is topological (strictly increasing depth along every
  // edge): forward pass for the heaviest ancestor chain, backward pass for
  // the heaviest descendant chain.
  std::vector<double> up(n, 0.0);    ///< max weight-sum of a strict ancestor chain
  std::vector<double> down(n, 0.0);  ///< ... of a strict descendant chain
  for (std::size_t k = 0; k < n; ++k) {
    for (const int p : parents_[k]) {
      const auto pi = static_cast<std::size_t>(p);
      up[k] = std::max(up[k], up[pi] + w[pi]);
    }
  }
  for (std::size_t k = n; k-- > 0;) {
    for (const int c : children_[k]) {
      const auto ci = static_cast<std::size_t>(c);
      down[k] = std::max(down[k], down[ci] + w[ci]);
    }
  }
  std::vector<double> sums(n, 0.0);
  for (std::size_t k = 0; k < n; ++k) sums[k] = up[k] + w[k] + down[k];
  return sums;
}

int CallGraph::Builder::add_stage(std::string label, FunctionProfile profile,
                                  StagePin pin) {
  AMOEBA_EXPECTS_MSG(!label.empty(), "stage label must be non-empty");
  for (const auto& s : stages_) {
    AMOEBA_EXPECTS_MSG(s.label != label, "duplicate stage label: " + label);
  }
  profile.validate();
  stages_.push_back(DeclStage{std::move(label), std::move(profile), pin});
  return static_cast<int>(stages_.size()) - 1;
}

void CallGraph::Builder::add_edge(int from, int to) {
  const int n = static_cast<int>(stages_.size());
  AMOEBA_EXPECTS_VALS(from >= 0 && from < n, from, n);
  AMOEBA_EXPECTS_VALS(to >= 0 && to < n, to, n);
  AMOEBA_EXPECTS_MSG(from != to, "self-edge on stage " +
                                     stages_[static_cast<std::size_t>(from)]
                                         .label);
  for (const auto& [f, t] : edges_) {
    AMOEBA_EXPECTS_MSG(!(f == from && t == to), "duplicate edge");
  }
  edges_.emplace_back(from, to);
}

CallGraph CallGraph::Builder::build() const {
  AMOEBA_EXPECTS_MSG(!stages_.empty(), "call graph needs at least one stage");
  const std::size_t n = stages_.size();

  std::vector<std::vector<int>> kids(n);
  std::vector<std::vector<int>> pars(n);
  for (const auto& [f, t] : edges_) {
    kids[static_cast<std::size_t>(f)].push_back(t);
    pars[static_cast<std::size_t>(t)].push_back(f);
  }

  // Longest-path depth via Kahn's algorithm; also the acyclicity check.
  std::vector<int> indeg(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    indeg[v] = static_cast<int>(pars[v].size());
  }
  std::vector<int> depth(n, 0);
  std::vector<int> queue;
  for (std::size_t v = 0; v < n; ++v) {
    if (indeg[v] == 0) queue.push_back(static_cast<int>(v));
  }
  std::size_t processed = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const int v = queue[head];
    ++processed;
    for (const int c : kids[static_cast<std::size_t>(v)]) {
      const auto ci = static_cast<std::size_t>(c);
      depth[ci] = std::max(depth[ci], depth[static_cast<std::size_t>(v)] + 1);
      if (--indeg[ci] == 0) queue.push_back(c);
    }
  }
  AMOEBA_EXPECTS_MSG(processed == n, "call graph contains a cycle");

  // Iterated content hashing (Weisfeiler-Lehman over content, depth and
  // both neighbourhoods). n rounds reach the refinement fixpoint for any
  // DAG of n stages; labels and declaration order never enter.
  std::vector<std::uint64_t> h(n);
  for (std::size_t v = 0; v < n; ++v) {
    h[v] = mix(content_hash(stages_[v].profile, stages_[v].pin),
               static_cast<std::uint64_t>(depth[v]));
  }
  for (std::size_t round = 0; round < n; ++round) {
    std::vector<std::uint64_t> next(n);
    for (std::size_t v = 0; v < n; ++v) {
      std::vector<std::uint64_t> up;
      std::vector<std::uint64_t> down;
      up.reserve(pars[v].size());
      down.reserve(kids[v].size());
      for (const int p : pars[v]) up.push_back(h[static_cast<std::size_t>(p)]);
      for (const int c : kids[v]) {
        down.push_back(h[static_cast<std::size_t>(c)]);
      }
      next[v] = mix(mix(h[v], fold_sorted(std::move(up))),
                    mix(0x1234567890abcdefULL, fold_sorted(std::move(down))));
    }
    h = std::move(next);
  }

  // Canonical order: (depth, refined hash, declaration index). Depth makes
  // it topological; the hash makes it declaration-order-independent; the
  // declaration index only ever breaks ties between automorphic stages,
  // where any choice yields the same built object.
  std::vector<int> order(n);
  for (std::size_t v = 0; v < n; ++v) order[v] = static_cast<int>(v);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const auto ai = static_cast<std::size_t>(a);
    const auto bi = static_cast<std::size_t>(b);
    if (depth[ai] != depth[bi]) return depth[ai] < depth[bi];
    if (h[ai] != h[bi]) return h[ai] < h[bi];
    return a < b;
  });
  std::vector<int> canon_of(n);  ///< declaration index -> canonical index
  for (std::size_t k = 0; k < n; ++k) {
    canon_of[static_cast<std::size_t>(order[k])] = static_cast<int>(k);
  }

  CallGraph g;
  g.stages_.reserve(n);
  g.service_names_.reserve(n);
  g.parents_.resize(n);
  g.children_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const auto decl = static_cast<std::size_t>(order[k]);
    g.stages_.push_back(CallGraphStage{stages_[decl].label,
                                       stages_[decl].profile,
                                       stages_[decl].pin});
    g.service_names_.push_back(stages_[decl].profile.name + "@s" +
                               std::to_string(k));
    g.max_path_stages_ = std::max(g.max_path_stages_, depth[decl] + 1);
    for (const int p : pars[decl]) {
      g.parents_[k].push_back(canon_of[static_cast<std::size_t>(p)]);
    }
    for (const int c : kids[decl]) {
      g.children_[k].push_back(canon_of[static_cast<std::size_t>(c)]);
    }
    std::sort(g.parents_[k].begin(), g.parents_[k].end());
    std::sort(g.children_[k].begin(), g.children_[k].end());
  }
  for (int k = 0; k < g.size(); ++k) {
    const auto ki = static_cast<std::size_t>(k);
    if (g.parents_[ki].empty()) g.roots_.push_back(k);
    if (g.children_[ki].empty()) g.leaves_.push_back(k);
  }

  std::uint64_t sh = 0x6d6f65626121ULL;
  for (std::size_t k = 0; k < n; ++k) {
    sh = mix(sh, h[static_cast<std::size_t>(order[k])]);
    for (const int c : g.children_[k]) {
      sh = mix(sh, static_cast<std::uint64_t>(c));
    }
  }
  g.structure_hash_ = sh;

  AMOEBA_ENSURES(!g.roots_.empty() && !g.leaves_.empty());
  return g;
}

}  // namespace amoeba::workload
