// Certified quotient equivalence for the state-space reduction layer
// (ExploreOptions::reduction): on every small-enough corpus task and every
// reduction mode,
//   * complete reduced graphs are bit-identical across engines and thread
//     counts (the canonical-graph contract survives reduction),
//   * under pure symmetry the orbit sizes divide the full graph out exactly
//     (sum of orbit sizes == full node count, node for node),
//   * valence verdicts (decision universe, root reachable set) match the
//     full graph, and symmetry-weighted multivalent/critical counts recover
//     the full-graph counts,
//   * task verdicts (the SET of violated properties) are identical for all
//     four modes, serial and parallel,
//   * counterexample paths lift to concrete replayable executions of the
//     unreduced protocol (path_to composes discovery permutations), and
//     mutants stay flagged under every mode.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "graph_testing.h"
#include "modelcheck/corpus.h"
#include "modelcheck/explorer.h"
#include "modelcheck/task_check.h"
#include "modelcheck/valence.h"
#include "sim/config.h"
#include "sim/symmetry.h"

namespace lbsa::modelcheck {
namespace {

constexpr Reduction kAllModes[] = {Reduction::kNone, Reduction::kSymmetry,
                                   Reduction::kPor, Reduction::kBoth};

// Tasks small enough to explore exhaustively many times in a test.
const char* kGraphTasks[] = {"dac3-sym", "dac4-sym", "consensus4-sym",
                             "mutant-dac-no-adopt3-sym", "strawdac3"};

NamedTask get_task(const std::string& name) {
  auto task = make_named_task(name);
  EXPECT_TRUE(task.is_ok()) << task.status().to_string();
  return task.value();
}

ConfigGraph explore_or_die(const NamedTask& task, Reduction reduction,
                           ExploreEngine engine = ExploreEngine::kSerial,
                           int threads = 1) {
  Explorer explorer(task.protocol);
  auto graph = explorer.explore({.threads = threads,
                                 .engine = engine,
                                 .reduction = reduction});
  EXPECT_TRUE(graph.is_ok()) << graph.status().to_string();
  return std::move(graph).value();
}

TEST(Reduction, ParseAndNames) {
  for (Reduction r : kAllModes) {
    const auto parsed = parse_reduction(reduction_name(r));
    ASSERT_TRUE(parsed.is_ok());
    EXPECT_EQ(parsed.value(), r);
  }
  EXPECT_EQ(parse_reduction("sym").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Reduction, ReducedGraphsBitIdenticalAcrossEnginesAndThreads) {
  for (const char* name : kGraphTasks) {
    SCOPED_TRACE(name);
    const NamedTask task = get_task(name);
    for (Reduction reduction : kAllModes) {
      SCOPED_TRACE(reduction_name(reduction));
      const ConfigGraph serial = explore_or_die(task, reduction);
      EXPECT_EQ(serial.reduction(), reduction);
      for (int threads : {1, 2, 8}) {
        SCOPED_TRACE(threads);
        const ConfigGraph parallel = explore_or_die(
            task, reduction, ExploreEngine::kParallel, threads);
        expect_same_graph(serial, parallel);
      }
    }
  }
}

TEST(Reduction, SymmetryOrbitSumsRecoverFullNodeCount) {
  for (const char* name : kGraphTasks) {
    SCOPED_TRACE(name);
    const NamedTask task = get_task(name);
    const ConfigGraph full = explore_or_die(task, Reduction::kNone);
    const ConfigGraph reduced = explore_or_die(task, Reduction::kSymmetry);
    EXPECT_LE(reduced.node_count(), full.node_count());
    // Node for node, the representatives' orbits partition the full graph.
    EXPECT_EQ(reduced.full_node_estimate(), full.node_count());
    if (const auto& canon = reduced.canonicalizer(); canon != nullptr) {
      std::uint64_t sum = 0;
      for (std::uint32_t id = 0; id < reduced.node_count(); ++id) {
        sum += canon->orbit_size(reduced.config(id));
      }
      EXPECT_EQ(sum, full.node_count());
      EXPECT_GT(canon->group_size(), 1u);
    } else {
      // Trivial declared symmetry: the "reduction" is the identity.
      EXPECT_EQ(reduced.node_count(), full.node_count());
    }
  }
}

std::set<Value> mask_to_values(std::uint64_t mask,
                               const std::vector<Value>& universe) {
  std::set<Value> values;
  for (std::size_t i = 0; i < universe.size(); ++i) {
    if (mask & (1ULL << i)) values.insert(universe[i]);
  }
  return values;
}

TEST(Reduction, ValenceUniverseAndRootReachableSetPreserved) {
  for (const char* name : kGraphTasks) {
    SCOPED_TRACE(name);
    const NamedTask task = get_task(name);
    const ConfigGraph full = explore_or_die(task, Reduction::kNone);
    const ValenceAnalyzer base(full);
    const std::set<Value> base_universe(base.universe().begin(),
                                        base.universe().end());
    const std::set<Value> base_root =
        mask_to_values(base.reachable_mask(full.root()), base.universe());
    for (Reduction reduction :
         {Reduction::kSymmetry, Reduction::kPor, Reduction::kBoth}) {
      SCOPED_TRACE(reduction_name(reduction));
      const ConfigGraph reduced = explore_or_die(task, reduction);
      const ValenceAnalyzer analyzer(reduced);
      EXPECT_EQ(std::set<Value>(analyzer.universe().begin(),
                                analyzer.universe().end()),
                base_universe);
      EXPECT_EQ(mask_to_values(analyzer.reachable_mask(reduced.root()),
                               analyzer.universe()),
                base_root);
    }
    // Pure symmetry additionally preserves weighted node counts: each
    // multivalent representative stands for orbit_size-many multivalent
    // concrete configurations (valence is renaming-invariant).
    const ConfigGraph reduced = explore_or_die(task, Reduction::kSymmetry);
    if (const auto& canon = reduced.canonicalizer(); canon != nullptr) {
      const ValenceAnalyzer analyzer(reduced);
      std::uint64_t weighted = 0;
      for (std::uint32_t id : analyzer.multivalent_nodes()) {
        weighted += canon->orbit_size(reduced.config(id));
      }
      EXPECT_EQ(weighted, base.multivalent_nodes().size());
    }
  }
}

StatusOr<TaskReport> run_check(const NamedTask& task, Reduction reduction,
                               int threads = 1) {
  TaskCheckOptions options;
  options.explore.max_nodes = 60'000;  // skip tasks beyond this budget
  options.explore.threads = threads;
  options.explore.engine =
      threads > 1 ? ExploreEngine::kParallel : ExploreEngine::kSerial;
  options.explore.reduction = reduction;
  if (task.distinguished_pid >= 0) {
    return check_dac_task(task.protocol, task.distinguished_pid, task.inputs,
                          options);
  }
  return check_k_agreement_task(task.protocol, task.k, task.inputs, options);
}

std::set<std::string> violated_properties(const TaskReport& report) {
  std::set<std::string> properties;
  for (const PropertyViolation& v : report.violations) {
    properties.insert(v.property);
  }
  return properties;
}

TEST(Reduction, TaskVerdictsIdenticalAcrossAllModesOnEveryCorpusTask) {
  // The headline cross-validation: for every registry task the exhaustive
  // checker reaches, all four reduction modes (and serial vs parallel)
  // agree on ok() and on exactly which properties are violated. Violation
  // counts legitimately differ (a reduced graph has fewer nodes), so only
  // the property sets are compared.
  for (const std::string& name : named_task_names()) {
    SCOPED_TRACE(name);
    const NamedTask task = get_task(name);
    const auto base = run_check(task, Reduction::kNone);
    if (!base.is_ok()) {
      ASSERT_EQ(base.status().code(), StatusCode::kResourceExhausted)
          << base.status().to_string();
      continue;  // beyond the test budget at reduction=none; skip
    }
    ASSERT_EQ(base.value().ok(), !task.expect_violation);
    const std::set<std::string> expected = violated_properties(base.value());
    for (Reduction reduction :
         {Reduction::kSymmetry, Reduction::kPor, Reduction::kBoth}) {
      SCOPED_TRACE(reduction_name(reduction));
      for (int threads : {1, 2}) {
        SCOPED_TRACE(threads);
        const auto report = run_check(task, reduction, threads);
        ASSERT_TRUE(report.is_ok()) << report.status().to_string();
        EXPECT_EQ(report.value().ok(), base.value().ok());
        EXPECT_EQ(violated_properties(report.value()), expected);
        if (task.expect_violation) {
          ASSERT_FALSE(report.value().violations.empty());
          EXPECT_FALSE(report.value().violations.front().trace.empty());
        }
      }
    }
  }
}

// Replays path_to(id) for every node of `graph` from the initial
// configuration with apply_step. Each returned Step must be exactly the
// step apply_step takes (pid, action, response, outcome_choice), and the
// run must end, after depth(id) steps, on node id's stored configuration
// up to the symmetry group. Likewise each parent_step(id), applied to the
// parent's stored configuration, must lead to node id. The graph stores
// neither steps nor outcome indices, so a wrong rebuild fails here through
// apply_step alone.
void expect_paths_replay(const NamedTask& task, const ConfigGraph& graph) {
  const sim::Protocol& protocol = *task.protocol;
  auto canonical = [&](sim::Config config) {
    if (const auto& canon = graph.canonicalizer(); canon != nullptr) {
      canon->canonicalize(&config);
    }
    return config;
  };
  for (std::uint32_t id = 0; id < graph.node_count(); ++id) {
    // The parent step first: path_to() certifies its own endpoint and
    // aborts on a bad replay, so a broken rebuild should fail here.
    if (id != graph.root()) {
      sim::Config parent = graph.config(graph.parent(id));
      const sim::Step step = graph.parent_step(id);
      ASSERT_EQ(
          sim::apply_step(protocol, &parent, step.pid, step.outcome_choice),
          step)
          << "parent step of node " << id << " is not the step it replays";
      ASSERT_TRUE(canonical(parent) == graph.config(id))
          << "parent step of node " << id << " does not lead to it";
    }
    const std::vector<sim::Step> path = graph.path_to(id);
    ASSERT_EQ(path.size(), graph.depth(id)) << "node " << id;
    sim::Config config = sim::initial_config(protocol);
    for (const sim::Step& step : path) {
      ASSERT_EQ(sim::apply_step(protocol, &config, step.pid,
                                step.outcome_choice),
                step)
          << "path step to node " << id << " is not the step it replays";
    }
    ASSERT_TRUE(canonical(config) == graph.config(id))
        << "lifted path for node " << id
        << " does not replay into the representative's orbit";
  }
}

TEST(Reduction, LiftedPathsReplayToConcreteExecutions) {
  // path_to on a reduced graph must return a schedule of the UNREDUCED
  // protocol: replaying it step by step from the initial configuration
  // lands on a configuration in the stored representative's orbit.
  for (const char* name : kGraphTasks) {
    SCOPED_TRACE(name);
    const NamedTask task = get_task(name);
    for (Reduction reduction : {Reduction::kSymmetry, Reduction::kBoth}) {
      SCOPED_TRACE(reduction_name(reduction));
      expect_paths_replay(task, explore_or_die(task, reduction));
    }
  }
}

TEST(Reduction, RebuiltStepsReplayUnderEveryMode) {
  // Every node's rebuilt path and parent step, on a nondeterministic-object
  // mutant and a symmetric DAC, under every reduction.
  for (const char* name : {"mutant-2sa4", "dac4-sym"}) {
    SCOPED_TRACE(name);
    const NamedTask task = get_task(name);
    for (Reduction reduction : kAllModes) {
      SCOPED_TRACE(reduction_name(reduction));
      expect_paths_replay(task, explore_or_die(task, reduction));
    }
  }
}

TEST(Reduction, MutantCounterexamplesLiftAndReplayUnderEveryMode) {
  // Regression per mutant: under every reduction mode the judge still
  // convicts some reachable representative, and the lifted schedule
  // replays to a concrete execution of the unreduced protocol that the
  // judge convicts of the same property.
  for (const std::string& name : named_task_names()) {
    const NamedTask task = get_task(name);
    if (!task.expect_violation) continue;
    SCOPED_TRACE(name);
    {
      // Budget probe at reduction=none; tasks beyond it are skipped whole
      // (the reduced graphs are only smaller).
      Explorer explorer(task.protocol);
      const auto probe = explorer.explore({.max_nodes = 60'000});
      if (!probe.is_ok()) {
        ASSERT_EQ(probe.status().code(), StatusCode::kResourceExhausted)
            << probe.status().to_string();
        continue;
      }
    }
    for (Reduction reduction : kAllModes) {
      SCOPED_TRACE(reduction_name(reduction));
      const ConfigGraph graph = explore_or_die(task, reduction);
      bool convicted = false;
      for (std::uint32_t id = 0; id < graph.node_count() && !convicted;
           ++id) {
        const auto [property, detail] = task.judge(graph.config(id));
        if (property.empty()) continue;
        convicted = true;
        sim::Config concrete = sim::initial_config(*task.protocol);
        for (const sim::Step& step : graph.path_to(id)) {
          sim::apply_step(*task.protocol, &concrete, step.pid,
                          step.outcome_choice);
        }
        const auto [lifted_property, lifted_detail] = task.judge(concrete);
        EXPECT_EQ(lifted_property, property)
            << "lifted schedule does not reproduce the violation";
      }
      EXPECT_TRUE(convicted) << "mutant not flagged under this mode";
    }
  }
}

TEST(Reduction, FlagFnWithSymmetryRequiresDeclaredInvariance) {
  const NamedTask task = get_task("dac3-sym");
  Explorer explorer(task.protocol);
  // Any-step flag function: invariant under pid renaming, but the explorer
  // cannot know that without the caller's declaration.
  const Explorer::FlagFn any_step =
      [](std::int64_t flag, const sim::Step& step) -> std::int64_t {
    (void)step;
    return flag == 0 ? 1 : flag;
  };
  const auto rejected = explorer.explore(
      {.reduction = Reduction::kSymmetry}, any_step, 0);
  ASSERT_FALSE(rejected.is_ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  const auto accepted = explorer.explore(
      {.reduction = Reduction::kSymmetry, .flag_fn_symmetric = true},
      any_step, 0);
  ASSERT_TRUE(accepted.is_ok()) << accepted.status().to_string();
  // POR alone never needs the declaration.
  const auto por = explorer.explore({.reduction = Reduction::kPor}, any_step,
                                    0);
  EXPECT_TRUE(por.is_ok()) << por.status().to_string();
}

// A protocol whose declared group moves every pid — including whatever pid
// a DAC check would distinguish. Every process immediately decides its
// (equal) input; no shared objects.
class FullySymmetricDecideProtocol final : public sim::ProtocolBase {
 public:
  explicit FullySymmetricDecideProtocol(int n)
      : ProtocolBase("fully-symmetric-decide", n, {}) {}

  std::vector<std::int64_t> initial_locals(int) const override {
    return {kInput};
  }
  sim::Action next_action(int, const sim::ProcessState& state) const override {
    return sim::Action::decide(state.locals[0]);
  }
  void on_response(int, sim::ProcessState*, Value) const override {}
  sim::SymmetrySpec symmetry() const override {
    return sim::SymmetrySpec::full(process_count());
  }

  static constexpr Value kInput = 5;
};

TEST(Reduction, DacCheckRejectsGroupMovingTheDistinguishedProcess) {
  auto protocol = std::make_shared<FullySymmetricDecideProtocol>(3);
  const std::vector<Value> inputs(3, FullySymmetricDecideProtocol::kInput);
  TaskCheckOptions options;
  options.explore.reduction = Reduction::kSymmetry;
  const auto report = check_dac_task(protocol, 0, inputs, options);
  ASSERT_FALSE(report.is_ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  // Without symmetry the same check runs fine.
  options.explore.reduction = Reduction::kPor;
  const auto por = check_dac_task(protocol, 0, inputs, options);
  ASSERT_TRUE(por.is_ok()) << por.status().to_string();
}

}  // namespace
}  // namespace lbsa::modelcheck
