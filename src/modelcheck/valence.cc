#include "modelcheck/valence.h"

#include <algorithm>
#include <bit>
#include <deque>

#include "base/check.h"

namespace lbsa::modelcheck {

ValenceAnalyzer::ValenceAnalyzer(const ConfigGraph& graph) : graph_(graph) {
  const std::uint32_t n = graph.node_count();
  masks_.assign(n, 0);

  // Pass 1: per-node "own" decisions, building the value universe.
  auto bit_of = [&](Value v) -> std::uint64_t {
    for (size_t i = 0; i < universe_.size(); ++i) {
      if (universe_[i] == v) return 1ULL << i;
    }
    LBSA_CHECK_MSG(universe_.size() < 64,
                   "valence analysis supports at most 64 decision values");
    universe_.push_back(v);
    return 1ULL << (universe_.size() - 1);
  };
  sim::Config config;
  for (std::uint32_t id = 0; id < n; ++id) {
    graph.config_into(id, &config);
    for (const sim::ProcessState& ps : config.procs) {
      if (ps.decided()) masks_[id] |= bit_of(ps.decision);
    }
  }

  // Reverse adjacency for the fixpoint, in CSR form: v's predecessors are
  // preds[pred_begin[v], pred_begin[v + 1]).
  std::vector<std::uint64_t> pred_begin(std::size_t{n} + 1, 0);
  for (std::uint32_t from = 0; from < n; ++from) {
    for (const Edge& e : graph.edges(from)) ++pred_begin[e.to + 1];
  }
  for (std::uint32_t v = 0; v < n; ++v) pred_begin[v + 1] += pred_begin[v];
  std::vector<std::uint32_t> preds(graph.transition_count());
  {
    std::vector<std::uint64_t> fill(pred_begin.begin(), pred_begin.end() - 1);
    for (std::uint32_t from = 0; from < n; ++from) {
      for (const Edge& e : graph.edges(from)) preds[fill[e.to]++] = from;
    }
  }

  // Worklist fixpoint: mask[u] |= mask[v] for every edge u -> v. Handles
  // cycles (protocols with retry loops) exactly.
  std::deque<std::uint32_t> worklist;
  std::vector<char> queued(n, 1);
  for (std::uint32_t id = 0; id < n; ++id) worklist.push_back(id);
  while (!worklist.empty()) {
    const std::uint32_t v = worklist.front();
    worklist.pop_front();
    queued[v] = 0;
    for (std::uint64_t i = pred_begin[v]; i < pred_begin[v + 1]; ++i) {
      const std::uint32_t u = preds[i];
      const std::uint64_t merged = masks_[u] | masks_[v];
      if (merged != masks_[u]) {
        masks_[u] = merged;
        if (!queued[u]) {
          queued[u] = 1;
          worklist.push_back(u);
        }
      }
    }
  }
}

int ValenceAnalyzer::reachable_count(std::uint32_t id) const {
  return std::popcount(masks_[id]);
}

Value ValenceAnalyzer::univalent_value(std::uint32_t id) const {
  LBSA_CHECK(is_univalent(id));
  const int bit = std::countr_zero(masks_[id]);
  return universe_[static_cast<size_t>(bit)];
}

std::vector<std::uint32_t> ValenceAnalyzer::critical_nodes() const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t id = 0; id < graph_.node_count(); ++id) {
    if (!is_multivalent(id)) continue;
    bool all_successors_univalent = true;
    for (const Edge& e : graph_.edges(id)) {
      if (!is_univalent(e.to)) {
        all_successors_univalent = false;
        break;
      }
    }
    if (all_successors_univalent && !graph_.edges(id).empty()) {
      out.push_back(id);
    }
  }
  return out;
}

std::vector<std::uint32_t> ValenceAnalyzer::multivalent_nodes() const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t id = 0; id < graph_.node_count(); ++id) {
    if (is_multivalent(id)) out.push_back(id);
  }
  return out;
}

}  // namespace lbsa::modelcheck
