#include "modelcheck/export.h"

#include <gtest/gtest.h>

#include "protocols/one_shot.h"

namespace lbsa::modelcheck {
namespace {

using protocols::make_consensus_via_n_consensus;

struct Prepared {
  std::shared_ptr<const sim::Protocol> protocol;
  ConfigGraph graph;
};

Prepared prepare() {
  auto protocol = make_consensus_via_n_consensus({0, 1});
  Explorer explorer(protocol);
  auto graph = std::move(explorer.explore()).value();
  return {protocol, std::move(graph)};
}

TEST(DotExport, ContainsAllNodesAndEdges) {
  Prepared p = prepare();
  const std::string dot = to_dot(*p.protocol, p.graph, nullptr);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  for (std::uint32_t id = 0; id < p.graph.node_count(); ++id) {
    EXPECT_NE(dot.find("n" + std::to_string(id) + " ["), std::string::npos);
  }
  // Edge count matches.
  std::size_t arrows = 0, pos = 0;
  while ((pos = dot.find(" -> ", pos)) != std::string::npos) {
    ++arrows;
    pos += 4;
  }
  EXPECT_EQ(arrows, p.graph.transition_count());
}

TEST(DotExport, ValenceColoringMarksRootAndCritical) {
  Prepared p = prepare();
  ValenceAnalyzer analyzer(p.graph);
  const std::string dot = to_dot(*p.protocol, p.graph, &analyzer);
  // Root is the bivalent critical config: double circle + amber + bold.
  EXPECT_NE(dot.find("doublecircle"), std::string::npos);
  EXPECT_NE(dot.find("#f28e2b"), std::string::npos);
  EXPECT_NE(dot.find("penwidth=3"), std::string::npos);
}

TEST(DotExport, ElidesOversizedGraphs) {
  Prepared p = prepare();
  DotOptions options;
  options.max_nodes = 3;
  const std::string dot = to_dot(*p.protocol, p.graph, nullptr, options);
  EXPECT_NE(dot.find("more configurations"), std::string::npos);
  EXPECT_EQ(dot.find("n5 ["), std::string::npos);
}

TEST(DotExport, EscapesQuotesInNames) {
  Prepared p = prepare();
  const std::string dot = to_dot(*p.protocol, p.graph, nullptr);
  // The digraph line must be well-formed (name quoted once).
  EXPECT_EQ(dot.find("digraph \""), 0u);
}

}  // namespace
}  // namespace lbsa::modelcheck
