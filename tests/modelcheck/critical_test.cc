// Mechanized Claim 5.2.3 / 4.2.7 shape: at critical configurations of
// working consensus protocols, all processes are poised on the same object —
// and that object is never a register (Claims 4.2.8 / 5.2.4).
#include "modelcheck/critical.h"

#include <gtest/gtest.h>

#include "protocols/one_shot.h"

namespace lbsa::modelcheck {
namespace {

using protocols::make_consensus_via_n_consensus;
using protocols::make_consensus_via_nm_pac;

struct Analysis {
  ConfigGraph graph;
  std::vector<CriticalInfo> critical;
};

Analysis analyze(std::shared_ptr<const sim::Protocol> protocol) {
  Explorer explorer(protocol);
  auto graph_or = explorer.explore();
  EXPECT_TRUE(graph_or.is_ok());
  Analysis a{std::move(graph_or).value(), {}};
  ValenceAnalyzer valence(a.graph);
  a.critical = analyze_critical_configurations(*protocol, a.graph, valence);
  return a;
}

TEST(Critical, ConsensusCriticalConfigIsOnTheConsensusObject) {
  for (int n = 2; n <= 4; ++n) {
    std::vector<Value> inputs;
    for (int i = 0; i < n; ++i) inputs.push_back(100 + i);
    auto protocol = make_consensus_via_n_consensus(inputs);
    const Analysis a = analyze(protocol);
    ASSERT_FALSE(a.critical.empty()) << "n=" << n;
    for (const CriticalInfo& info : a.critical) {
      EXPECT_TRUE(info.all_on_same_object) << "n=" << n;
      EXPECT_EQ(info.common_object, 0);
      EXPECT_EQ(info.common_object_type, std::to_string(n) + "-consensus");
      // Every enabled process appears in the pending list.
      EXPECT_EQ(info.pending.size(),
                static_cast<size_t>(
                    a.graph.config(info.node).enabled_count()));
    }
  }
}

TEST(Critical, NmPacCriticalConfigIsOnTheCombinedObject) {
  // Consensus through an (n,m)-PAC: the pivotal object is the (n,m)-PAC
  // itself — the situation Claim 5.2.3 sets up before ruling out each
  // component type.
  auto protocol = make_consensus_via_nm_pac(3, 2, {100, 101});
  const Analysis a = analyze(protocol);
  ASSERT_FALSE(a.critical.empty());
  for (const CriticalInfo& info : a.critical) {
    EXPECT_TRUE(info.all_on_same_object);
    EXPECT_EQ(info.common_object_type, "(3,2)-PAC");
  }
}

TEST(Critical, CriticalObjectIsNeverARegister) {
  // Claims 4.2.8 / 5.2.4 in mechanized form, over every protocol we can
  // throw at it: if a critical configuration exists and all pending steps
  // share an object, that object is not a register.
  const std::vector<std::shared_ptr<const sim::Protocol>> protocols = {
      make_consensus_via_n_consensus({100, 101}),
      make_consensus_via_n_consensus({100, 101, 102}),
      make_consensus_via_nm_pac(3, 2, {100, 101}),
  };
  for (const auto& protocol : protocols) {
    const Analysis a = analyze(protocol);
    for (const CriticalInfo& info : a.critical) {
      if (info.all_on_same_object) {
        EXPECT_NE(info.common_object_type, "register") << protocol->name();
      }
    }
  }
}

TEST(Critical, PendingStepDescriptionsAreReadable) {
  auto protocol = make_consensus_via_n_consensus({100, 101});
  const Analysis a = analyze(protocol);
  ASSERT_FALSE(a.critical.empty());
  const CriticalInfo& info = a.critical.front();
  ASSERT_EQ(info.pending.size(), 2u);
  EXPECT_NE(info.pending[0].description.find("PROPOSE"), std::string::npos);
  EXPECT_NE(info.pending[1].description.find("2-consensus"),
            std::string::npos);
}

TEST(Critical, AnalyzeArbitraryNodeIncludesLocalSteps) {
  // One step after the root, the stepping process is poised on a local
  // decide — object_index must be -1 and same-object must be false.
  auto protocol = make_consensus_via_n_consensus({100, 101});
  Explorer explorer(protocol);
  auto graph = std::move(explorer.explore()).value();
  const auto& edges = graph.edges(graph.root());
  ASSERT_FALSE(edges.empty());
  const CriticalInfo info =
      analyze_pending_steps(*protocol, graph, edges[0].to);
  bool saw_local = false;
  for (const auto& step : info.pending) {
    if (step.object_index == -1) {
      saw_local = true;
      EXPECT_NE(step.description.find("decide"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_local);
  EXPECT_FALSE(info.all_on_same_object);
}

}  // namespace
}  // namespace lbsa::modelcheck
