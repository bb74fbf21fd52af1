// Graph comparison shared by the engine-equivalence, reduction, parallel
// explorer and checkpoint suites.
#ifndef LBSA_TESTS_MODELCHECK_GRAPH_TESTING_H_
#define LBSA_TESTS_MODELCHECK_GRAPH_TESTING_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "modelcheck/explorer.h"

namespace lbsa::modelcheck {

// Asserts that two graphs are bit-identical: every node's key
// (configuration encoding and path flag), depth, edge list, discovering
// edge and discovery perm, plus the graph-level state.
inline void expect_same_graph(const ConfigGraph& a, const ConfigGraph& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  EXPECT_EQ(a.transition_count(), b.transition_count());
  EXPECT_EQ(a.truncated(), b.truncated());
  EXPECT_EQ(a.interrupted(), b.interrupted());
  EXPECT_EQ(a.levels_completed(), b.levels_completed());
  EXPECT_EQ(a.pending_frontier(), b.pending_frontier());
  for (std::uint32_t id = 0; id < a.node_count(); ++id) {
    ASSERT_TRUE(std::ranges::equal(a.key(id), b.key(id)))
        << "key mismatch at node " << id;
    EXPECT_EQ(a.depth(id), b.depth(id)) << "depth mismatch at node " << id;
    ASSERT_TRUE(std::ranges::equal(a.edges(id), b.edges(id)))
        << "edges mismatch at node " << id;
    EXPECT_EQ(a.parent(id), b.parent(id)) << "parent mismatch at node " << id;
    EXPECT_EQ(a.parent_edge(id), b.parent_edge(id))
        << "parent edge mismatch at node " << id;
    EXPECT_TRUE(
        std::ranges::equal(a.discovery_perm(id), b.discovery_perm(id)))
        << "discovery perm mismatch at node " << id;
  }
}

}  // namespace lbsa::modelcheck

#endif  // LBSA_TESTS_MODELCHECK_GRAPH_TESTING_H_
