// Serial-vs-pooled equivalence: generating successors on the worker pool
// must produce a canonical ConfigGraph that is bit-identical to the inline
// (serial) run — same node ids, configurations, flags, depths, edge lists,
// parents (via path_to) and transition counts — for every thread count.
// This is the contract that lets every downstream consumer (valence,
// task_check, critical, step_complexity, export) stay oblivious to how the
// graph was built.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "graph_testing.h"
#include "modelcheck/explorer.h"
#include "protocols/dac_from_pac.h"
#include "protocols/one_shot.h"
#include "protocols/straw_dac.h"

namespace lbsa::modelcheck {
namespace {

using protocols::DacFromPacProtocol;
using protocols::make_consensus_via_n_consensus;
using protocols::make_ksa_via_two_sa;

void expect_identical(const ConfigGraph& serial, const ConfigGraph& parallel,
                      const char* label) {
  SCOPED_TRACE(label);
  expect_same_graph(serial, parallel);
}

void expect_all_thread_counts_match(
    std::shared_ptr<const sim::Protocol> protocol,
    Explorer::FlagFn flag_fn = nullptr) {
  Explorer explorer(std::move(protocol));
  const auto serial =
      explorer.explore({.engine = ExploreEngine::kSerial}, flag_fn);
  ASSERT_TRUE(serial.is_ok()) << serial.status().to_string();
  for (int threads : {1, 2, 8}) {
    const auto parallel = explorer.explore(
        {.threads = threads, .engine = ExploreEngine::kParallel}, flag_fn);
    ASSERT_TRUE(parallel.is_ok()) << parallel.status().to_string();
    expect_identical(serial.value(), parallel.value(),
                     ("threads=" + std::to_string(threads)).c_str());
  }
}

TEST(ParallelExplorer, SingleProcessLine) {
  expect_all_thread_counts_match(make_consensus_via_n_consensus({10}));
}

TEST(ParallelExplorer, TwoProcessConsensus) {
  expect_all_thread_counts_match(make_consensus_via_n_consensus({10, 20}));
}

TEST(ParallelExplorer, NondeterministicTwoSaBranching) {
  expect_all_thread_counts_match(make_ksa_via_two_sa({10, 20}));
}

TEST(ParallelExplorer, DacWithCycles) {
  expect_all_thread_counts_match(
      std::make_shared<DacFromPacProtocol>(std::vector<Value>{10, 20}));
}

TEST(ParallelExplorer, ThreeProcessDac) {
  expect_all_thread_counts_match(
      std::make_shared<DacFromPacProtocol>(std::vector<Value>{10, 20, 30}));
}

TEST(ParallelExplorer, StrawDacFallback) {
  expect_all_thread_counts_match(
      std::make_shared<protocols::StrawDacFallbackProtocol>(
          std::vector<Value>{10, 20, 30}));
}

TEST(ParallelExplorer, FlagAugmentedGraph) {
  expect_all_thread_counts_match(
      make_consensus_via_n_consensus({10, 20}),
      [](std::int64_t flag, const sim::Step& step) -> std::int64_t {
        return step.pid == 1 ? 1 : flag;
      });
}

TEST(ParallelExplorer, AutoEngineDefaultsMatchSerial) {
  // Whatever kAuto resolves to on this machine, the output is canonical.
  auto protocol =
      std::make_shared<DacFromPacProtocol>(std::vector<Value>{10, 20, 30});
  Explorer explorer(protocol);
  const auto serial = explorer.explore({.engine = ExploreEngine::kSerial});
  const auto auto_graph = explorer.explore();
  ASSERT_TRUE(serial.is_ok());
  ASSERT_TRUE(auto_graph.is_ok());
  expect_identical(serial.value(), auto_graph.value(), "auto engine");
}

TEST(ParallelExplorer, NodeBudgetErrorWithoutTruncation) {
  auto protocol =
      std::make_shared<DacFromPacProtocol>(std::vector<Value>{10, 20, 30});
  Explorer explorer(protocol);
  const auto graph = explorer.explore(
      {.max_nodes = 5, .threads = 4, .engine = ExploreEngine::kParallel});
  ASSERT_FALSE(graph.is_ok());
  EXPECT_EQ(graph.status().code(), StatusCode::kResourceExhausted);
}

TEST(ParallelExplorer, TruncatedGraphIsConsistent) {
  // The node budget is applied in canonical discovery order, so a
  // truncated pooled run is bit-identical to the truncated serial run
  // (nodes, edges, parents, truncated()) and, like it, internally
  // consistent: every edge in range, every node beyond the budget kept but
  // unexpanded, and every node replayable from the root.
  auto protocol =
      std::make_shared<DacFromPacProtocol>(std::vector<Value>{10, 20, 30});
  Explorer explorer(protocol);
  const auto serial_or = explorer.explore({.max_nodes = 50,
                                           .allow_truncation = true,
                                           .engine = ExploreEngine::kSerial});
  ASSERT_TRUE(serial_or.is_ok());
  const ConfigGraph& serial = serial_or.value();
  EXPECT_TRUE(serial.truncated());
  EXPECT_GT(serial.node_count(), 50u);  // kept nodes overshoot the budget
  for (int threads : {2, 8}) {
    SCOPED_TRACE(threads);
    const auto partial_or = explorer.explore({.max_nodes = 50,
                                              .allow_truncation = true,
                                              .threads = threads,
                                              .engine = ExploreEngine::kParallel});
    ASSERT_TRUE(partial_or.is_ok());
    const ConfigGraph& graph = partial_or.value();
    expect_identical(serial, graph, "truncated");
    for (std::uint32_t id = 0; id < graph.node_count(); ++id) {
      for (const Edge& e : graph.edges(id)) {
        ASSERT_LT(e.to, graph.node_count());
      }
      sim::Config config = sim::initial_config(*protocol);
      for (const sim::Step& step : graph.path_to(id)) {
        sim::apply_step(*protocol, &config, step.pid, step.outcome_choice);
      }
      EXPECT_EQ(config, graph.config(id));
    }
  }
}

}  // namespace
}  // namespace lbsa::modelcheck
