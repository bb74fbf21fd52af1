#include "modelcheck/explorer.h"

#include <gtest/gtest.h>

#include "protocols/dac_from_pac.h"
#include "protocols/one_shot.h"
#include "protocols/straw_dac.h"
#include "modelcheck/task_check.h"

namespace lbsa::modelcheck {
namespace {

using protocols::DacFromPacProtocol;
using protocols::make_consensus_via_n_consensus;
using protocols::make_ksa_via_two_sa;

TEST(Explorer, SingleProcessGraphIsALine) {
  auto protocol = make_consensus_via_n_consensus({10});
  Explorer explorer(protocol);
  const auto graph_or = explorer.explore();
  ASSERT_TRUE(graph_or.is_ok());
  const ConfigGraph& graph = graph_or.value();
  // init -> proposed -> decided: 3 nodes, 2 transitions.
  EXPECT_EQ(graph.node_count(), 3u);
  EXPECT_EQ(graph.transition_count(), 2u);
}

TEST(Explorer, TwoProcessConsensusGraphIsComplete) {
  auto protocol = make_consensus_via_n_consensus({10, 20});
  Explorer explorer(protocol);
  const auto graph_or = explorer.explore();
  ASSERT_TRUE(graph_or.is_ok());
  const ConfigGraph& graph = graph_or.value();
  EXPECT_GT(graph.node_count(), 4u);
  // Every node has one outgoing edge per enabled process (object is
  // deterministic here).
  for (std::uint32_t id = 0; id < graph.node_count(); ++id) {
    EXPECT_EQ(graph.edges(id).size(),
              static_cast<size_t>(graph.config(id).enabled_count()));
  }
  // Terminal nodes exist; in each, all processes agree on the first
  // proposer's value (which of the two it is depends on the schedule).
  int terminal = 0;
  for (std::uint32_t id = 0; id < graph.node_count(); ++id) {
    const sim::Config config = graph.config(id);
    if (!config.halted()) continue;
    ++terminal;
    const Value winner = config.procs[0].decision;
    EXPECT_TRUE(winner == 10 || winner == 20);
    for (const sim::ProcessState& ps : config.procs) {
      EXPECT_TRUE(ps.decided());
      EXPECT_EQ(ps.decision, winner);
    }
  }
  EXPECT_GE(terminal, 2);  // both winners occur across schedules
}

TEST(Explorer, NondeterministicOutcomesBranch) {
  auto protocol = make_ksa_via_two_sa({10, 20});
  Explorer explorer(protocol);
  const auto graph_or = explorer.explore();
  ASSERT_TRUE(graph_or.is_ok());
  const ConfigGraph& graph = graph_or.value();
  // Some node must have more edges than enabled processes (the 2-SA branch).
  bool saw_branching = false;
  for (std::uint32_t id = 0; id < graph.node_count(); ++id) {
    if (graph.edges(id).size() >
        static_cast<size_t>(graph.config(id).enabled_count())) {
      saw_branching = true;
    }
  }
  EXPECT_TRUE(saw_branching);
}

TEST(Explorer, NodeBudgetIsEnforced) {
  auto protocol = std::make_shared<DacFromPacProtocol>(
      std::vector<Value>{10, 20, 30});
  Explorer explorer(protocol);
  const auto graph_or = explorer.explore({.max_nodes = 5});
  ASSERT_FALSE(graph_or.is_ok());
  EXPECT_EQ(graph_or.status().code(), StatusCode::kResourceExhausted);
}

TEST(Explorer, TruncationReturnsConsistentPartialGraph) {
  auto protocol = std::make_shared<DacFromPacProtocol>(
      std::vector<Value>{10, 20, 30});
  Explorer explorer(protocol);
  const auto full = explorer.explore();
  ASSERT_TRUE(full.is_ok());
  EXPECT_FALSE(full.value().truncated());

  const auto partial =
      explorer.explore({.max_nodes = 50, .allow_truncation = true});
  ASSERT_TRUE(partial.is_ok());
  const ConfigGraph& graph = partial.value();
  EXPECT_TRUE(graph.truncated());
  EXPECT_LT(graph.node_count(), full.value().node_count());
  // All edges stay inside the partial node set, and every node replays.
  for (std::uint32_t id = 0; id < graph.node_count(); ++id) {
    for (const Edge& e : graph.edges(id)) {
      EXPECT_LT(e.to, graph.node_count());
    }
    sim::Config config = sim::initial_config(*protocol);
    for (const sim::Step& step : graph.path_to(id)) {
      sim::apply_step(*protocol, &config, step.pid, step.outcome_choice);
    }
    EXPECT_EQ(config, graph.config(id));
  }
}

TEST(Explorer, TruncatedNodesAreKeptButNeverExpanded) {
  // Regression for the truncation bookkeeping contract: when the node
  // budget trips, the over-budget node is still pushed into the graph (so
  // the edge that discovered it has a valid target and its parent chain
  // replays), but it is never expanded.
  auto protocol = std::make_shared<DacFromPacProtocol>(
      std::vector<Value>{10, 20, 30});
  Explorer explorer(protocol);
  constexpr std::uint64_t kBudget = 50;
  const auto partial =
      explorer.explore({.max_nodes = kBudget, .allow_truncation = true});
  ASSERT_TRUE(partial.is_ok());
  const ConfigGraph& graph = partial.value();
  ASSERT_TRUE(graph.truncated());
  // Kept-but-unexpanded nodes overshoot the budget.
  EXPECT_GT(graph.node_count(), kBudget);
  // Unexpanded non-terminal nodes exist (empty edge list despite enabled
  // processes) — and expanded nodes always carry their complete edge list,
  // so edge lists are all-or-nothing.
  int unexpanded = 0;
  for (std::uint32_t id = 0; id < graph.node_count(); ++id) {
    const sim::Config config = graph.config(id);
    if (graph.edges(id).empty() && config.enabled_count() > 0) {
      ++unexpanded;
    } else if (!graph.edges(id).empty()) {
      // A partial expansion would break the per-node edge invariant used
      // by cross-validation (edge count == sum of outcome counts).
      std::size_t expected = 0;
      for (int pid = 0; pid < static_cast<int>(config.procs.size()); ++pid) {
        if (!config.enabled(pid)) continue;
        expected += static_cast<std::size_t>(
            sim::outcome_count(*protocol, config, pid));
      }
      EXPECT_EQ(graph.edges(id).size(), expected) << "node " << id;
    }
  }
  EXPECT_GT(unexpanded, 0);
}

TEST(Explorer, TruncatedSafetyCheckStillFindsRealViolations) {
  // A straw protocol whose agreement violation appears early: even a
  // heavily truncated exploration must surface it (violations on partial
  // graphs are sound).
  auto protocol = std::make_shared<protocols::StrawDacFallbackProtocol>(
      std::vector<Value>{10, 20, 30});
  TaskCheckOptions options;
  options.explore.max_nodes = 80;
  options.explore.allow_truncation = true;
  auto report = check_dac_task(protocol, 0, {10, 20, 30}, options);
  ASSERT_TRUE(report.is_ok());
  EXPECT_TRUE(report.value().partial);
  EXPECT_TRUE(report.value().violates("agreement"))
      << report.value().to_string();
  EXPECT_NE(report.value().to_string().find("PARTIAL"), std::string::npos);
}

TEST(Explorer, PathToReconstructsShortestHistory) {
  auto protocol = make_consensus_via_n_consensus({10, 20});
  Explorer explorer(protocol);
  const auto graph_or = explorer.explore();
  ASSERT_TRUE(graph_or.is_ok());
  const ConfigGraph& graph = graph_or.value();
  for (std::uint32_t id = 0; id < graph.node_count(); ++id) {
    const auto path = graph.path_to(id);
    EXPECT_EQ(path.size(), graph.depth(id));
    // Replaying the path from the initial config lands on the node.
    sim::Config config = sim::initial_config(*protocol);
    for (const sim::Step& step : path) {
      sim::apply_step(*protocol, &config, step.pid, step.outcome_choice);
    }
    EXPECT_EQ(config, graph.config(id));
  }
}

TEST(Explorer, FlagAugmentationSplitsNodes) {
  // With a flag tracking "p1 has stepped", the same configuration reached
  // with and without p1 steps becomes two nodes.
  auto protocol = make_consensus_via_n_consensus({10, 20});
  Explorer explorer(protocol);
  const auto plain = explorer.explore();
  ASSERT_TRUE(plain.is_ok());
  const auto flagged = explorer.explore(
      {}, [](std::int64_t flag, const sim::Step& step) -> std::int64_t {
        return step.pid == 1 ? 1 : flag;
      });
  ASSERT_TRUE(flagged.is_ok());
  EXPECT_GE(flagged.value().node_count(), plain.value().node_count());
  bool saw_flag = false;
  for (std::uint32_t id = 0; id < flagged.value().node_count(); ++id) {
    if (flagged.value().flag(id) == 1) saw_flag = true;
  }
  EXPECT_TRUE(saw_flag);
}

TEST(Explorer, RejectsThreadCountAboveTheMaximum) {
  // Rejected before any generator or worker is allocated: the serial engine
  // never starts a thread, so a regressed check fails here rather than
  // exhausting the host.
  auto protocol = make_consensus_via_n_consensus({10, 20});
  const auto graph_or = Explorer(protocol).explore(
      {.threads = 1'000'000, .engine = ExploreEngine::kSerial});
  EXPECT_EQ(graph_or.status().code(), StatusCode::kInvalidArgument)
      << graph_or.status().to_string();
  EXPECT_TRUE(Explorer(protocol)
                  .explore({.threads = kMaxThreads,
                            .engine = ExploreEngine::kSerial})
                  .is_ok());
}

TEST(Explorer, DacGraphIsExactAndFinite) {
  // Algorithm 2 has a retry loop, so the graph has cycles; exploration must
  // still terminate with a finite graph.
  auto protocol = std::make_shared<DacFromPacProtocol>(
      std::vector<Value>{10, 20});
  Explorer explorer(protocol);
  const auto graph_or = explorer.explore();
  ASSERT_TRUE(graph_or.is_ok());
  EXPECT_GT(graph_or.value().node_count(), 10u);
  EXPECT_LT(graph_or.value().node_count(), 10'000u);
}

}  // namespace
}  // namespace lbsa::modelcheck
