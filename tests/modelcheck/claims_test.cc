// The numbered claims inside the proof of Theorem 4.2, mechanized on
// Algorithm 2 (a *correct* DAC solution — the claims' content is about the
// task, so any correct solution must exhibit them) with the proof's initial
// configuration: p has input 1, everyone else input 0.
#include <gtest/gtest.h>

#include "modelcheck/explorer.h"
#include "modelcheck/valence.h"
#include "protocols/dac_from_pac.h"

namespace lbsa::modelcheck {
namespace {

using protocols::DacFromPacProtocol;

struct Analyzed {
  std::shared_ptr<const sim::Protocol> protocol;
  ConfigGraph graph;
  std::unique_ptr<ValenceAnalyzer> analyzer;
};

Analyzed analyze_theorem_42_instance(int n_plus_1) {
  // Input vector of the Theorem 4.2 proof: p = process 0 has 1, rest 0.
  std::vector<Value> inputs(static_cast<size_t>(n_plus_1), 0);
  inputs[0] = 1;
  auto protocol = std::make_shared<DacFromPacProtocol>(inputs);
  Explorer explorer(protocol);
  auto graph = std::move(explorer.explore()).value();
  auto analyzer = std::make_unique<ValenceAnalyzer>(graph);
  return {protocol, std::move(graph), std::move(analyzer)};
}

// Maps a decision value to its valence bit.
std::uint64_t bit_of(const ValenceAnalyzer& analyzer, Value v) {
  for (size_t i = 0; i < analyzer.universe().size(); ++i) {
    if (analyzer.universe()[i] == v) return 1ULL << i;
  }
  return 0;
}

TEST(TheoremFourTwoClaims, Claim421_NoConfigIsBothZeroAndOneValent) {
  const Analyzed a = analyze_theorem_42_instance(3);
  for (std::uint32_t id = 0; id < a.graph.node_count(); ++id) {
    // "v-valent" = only v reachable; no configuration can be both — here:
    // the reachable-decision set is a single well-defined mask, and
    // univalence is its popcount being 1, so the claim is that the
    // *decisions actually made* in any config agree with the mask.
    for (const sim::ProcessState& ps : a.graph.config(id).procs) {
      if (ps.decided()) {
        EXPECT_TRUE(a.analyzer->reachable_mask(id) &
                    bit_of(*a.analyzer, ps.decision));
      }
    }
  }
}

TEST(TheoremFourTwoClaims, Claim422_ConfigsWherePAbortedAreZeroValent) {
  // Claim 4.2.2: if p aborts in C, then C is 0-valent (p was the only
  // process with input 1; a decision of 1 would violate Validity).
  for (int n_plus_1 : {2, 3, 4}) {
    const Analyzed a = analyze_theorem_42_instance(n_plus_1);
    const std::uint64_t one_bit = bit_of(*a.analyzer, 1);
    int aborted_configs = 0;
    for (std::uint32_t id = 0; id < a.graph.node_count(); ++id) {
      if (!a.graph.config(id).procs[0].aborted()) continue;
      ++aborted_configs;
      EXPECT_EQ(a.analyzer->reachable_mask(id) & one_bit, 0u)
          << "config " << id << " (p aborted) can still reach decision 1";
    }
    EXPECT_GT(aborted_configs, 0) << "n+1=" << n_plus_1;
  }
}

TEST(TheoremFourTwoClaims, Claim423_TerminalPConfigsAreUnivalent) {
  // Observation 4.2.3: once p has aborted or decided, the configuration is
  // univalent.
  const Analyzed a = analyze_theorem_42_instance(3);
  for (std::uint32_t id = 0; id < a.graph.node_count(); ++id) {
    const sim::Config config = a.graph.config(id);
    const auto& p_state = config.procs[0];
    if (p_state.aborted() || p_state.decided()) {
      EXPECT_LE(a.analyzer->reachable_count(id), 1) << "config " << id;
    }
  }
}

TEST(TheoremFourTwoClaims, Claim424_InitialConfigIsBivalent) {
  // Claim 4.2.4: I is bivalent — p running solo decides its own input 1,
  // any q running solo decides 0.
  for (int n_plus_1 : {2, 3, 4}) {
    const Analyzed a = analyze_theorem_42_instance(n_plus_1);
    EXPECT_TRUE(a.analyzer->is_multivalent(a.graph.root()))
        << "n+1=" << n_plus_1;
    ASSERT_EQ(a.analyzer->universe().size(), 2u);
  }
}

TEST(TheoremFourTwoClaims, ValenceFlipsOnlyThroughTheSharedObject) {
  // The engine behind Claims 4.2.7-4.2.10: whenever two successor
  // configurations of one node have OPPOSITE (univalent) valences, the two
  // steps that produced them touched the same shared object. Scan every
  // such sibling pair in the full graph.
  const Analyzed a = analyze_theorem_42_instance(3);
  int sibling_pairs = 0;
  for (std::uint32_t id = 0; id < a.graph.node_count(); ++id) {
    const auto& edges = a.graph.edges(id);
    for (size_t i = 0; i < edges.size(); ++i) {
      for (size_t j = i + 1; j < edges.size(); ++j) {
        if (!a.analyzer->is_univalent(edges[i].to) ||
            !a.analyzer->is_univalent(edges[j].to)) {
          continue;
        }
        if (a.analyzer->univalent_value(edges[i].to) ==
            a.analyzer->univalent_value(edges[j].to)) {
          continue;
        }
        ++sibling_pairs;
        // Both steps must be invokes (decide/abort steps cannot flip the
        // valence of the *other* branch)...
        EXPECT_EQ(edges[i].kind, sim::Action::Kind::kInvoke);
        EXPECT_EQ(edges[j].kind, sim::Action::Kind::kInvoke);
        // ...and on the same object. Algorithm 2 has a single object, so
        // this holds trivially here; the assertion is the generic shape.
        const auto& config = a.graph.config(id);
        const auto action_i = a.protocol->next_action(
            edges[i].pid, config.procs[static_cast<size_t>(edges[i].pid)]);
        const auto action_j = a.protocol->next_action(
            edges[j].pid, config.procs[static_cast<size_t>(edges[j].pid)]);
        EXPECT_EQ(action_i.object_index, action_j.object_index);
      }
    }
  }
  EXPECT_GT(sibling_pairs, 0);
}

}  // namespace
}  // namespace lbsa::modelcheck
