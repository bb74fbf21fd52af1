// Task-checker tests, covering both directions:
//   * positive (E2, E4, E5): Algorithm 2 solves n-DAC for all schedules;
//     one-shot consensus via n-consensus / (n,m)-PAC passes all properties;
//   * negative (E3): the straw-man DAC candidates built from n-consensus +
//     registers + 2-SA fail exactly as Theorem 4.2 predicts, and the FLP
//     race fails termination.
#include "modelcheck/task_check.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "modelcheck/corpus.h"
#include "obs/metrics.h"
#include "protocols/dac_from_pac.h"
#include "protocols/flp_race.h"
#include "protocols/group_ksa.h"
#include "protocols/one_shot.h"
#include "protocols/straw_dac.h"
#include "protocols/straw_dac_oprime.h"
#include "protocols/straw_nm_consensus.h"
#include "spec/ksa_type.h"

namespace lbsa::modelcheck {
namespace {

using protocols::DacFromPacProtocol;
using protocols::FlpRaceProtocol;
using protocols::GroupKsaProtocol;
using protocols::StrawDacAnnounceProtocol;
using protocols::StrawDacFallbackProtocol;
using protocols::make_consensus_via_n_consensus;
using protocols::make_consensus_via_nm_pac;
using protocols::make_ksa_via_oprime;
using protocols::make_ksa_via_two_sa;

std::vector<Value> iota_inputs(int n) {
  std::vector<Value> inputs;
  for (int i = 0; i < n; ++i) inputs.push_back(100 + i);
  return inputs;
}

// ----------------------------- positive checks -----------------------------

TEST(TaskCheck, ConsensusViaNConsensusPasses) {
  for (int n = 1; n <= 4; ++n) {
    auto report_or =
        check_consensus_task(make_consensus_via_n_consensus(iota_inputs(n)),
                             iota_inputs(n));
    ASSERT_TRUE(report_or.is_ok());
    EXPECT_TRUE(report_or.value().ok())
        << "n=" << n << "\n"
        << report_or.value().to_string();
  }
}

TEST(TaskCheck, ConsensusViaNmPacPasses) {
  // Observation 5.1(c) / positive half of Theorem 5.3: (n,m)-PAC solves
  // m-consensus.
  for (const auto& [n, m] : {std::pair{3, 2}, std::pair{4, 3},
                             std::pair{2, 2}}) {
    auto report_or = check_consensus_task(
        make_consensus_via_nm_pac(n, m, iota_inputs(m)), iota_inputs(m));
    ASSERT_TRUE(report_or.is_ok());
    EXPECT_TRUE(report_or.value().ok())
        << "(n,m)=(" << n << "," << m << ")\n"
        << report_or.value().to_string();
  }
}

TEST(TaskCheck, KsaViaTwoSaPasses) {
  // 2-SA solves 2-set agreement among any number of processes (here 2..4,
  // exhaustively over all schedules and all nondeterministic responses).
  for (int n = 2; n <= 4; ++n) {
    auto report_or = check_k_agreement_task(
        make_ksa_via_two_sa(iota_inputs(n)), 2, iota_inputs(n));
    ASSERT_TRUE(report_or.is_ok());
    EXPECT_TRUE(report_or.value().ok())
        << "n=" << n << "\n"
        << report_or.value().to_string();
  }
}

TEST(TaskCheck, TwoSaDoesNotSolveConsensusAmongTwo) {
  // The same protocol checked against k=1 fails agreement: the 2-SA object
  // may return different members to the two proposers.
  auto report_or = check_k_agreement_task(make_ksa_via_two_sa(iota_inputs(2)),
                                          1, iota_inputs(2));
  ASSERT_TRUE(report_or.is_ok());
  EXPECT_FALSE(report_or.value().ok());
  EXPECT_TRUE(report_or.value().violates("agreement"));
}

TEST(TaskCheck, GroupKsaPasses) {
  // k-set agreement among k*m processes from k m-consensus objects
  // (Chaudhuri-Reiners partition protocol) — the lower-bound construction
  // behind every set-agreement-power entry.
  for (const auto& [k, m] : {std::pair{2, 2}, std::pair{3, 1},
                             std::pair{2, 1}}) {
    const auto inputs = iota_inputs(k * m);
    auto protocol = std::make_shared<GroupKsaProtocol>(k, m, inputs);
    auto report_or = check_k_agreement_task(protocol, k, inputs);
    ASSERT_TRUE(report_or.is_ok());
    EXPECT_TRUE(report_or.value().ok())
        << "(k,m)=(" << k << "," << m << ")\n"
        << report_or.value().to_string();
  }
}

TEST(TaskCheck, GroupKsaIsTightAtKMinusOne) {
  // The same protocol does NOT solve (k-1)-set agreement: groups decide
  // independent values.
  const auto inputs = iota_inputs(4);
  auto protocol = std::make_shared<GroupKsaProtocol>(2, 2, inputs);
  auto report_or = check_k_agreement_task(protocol, 1, inputs);
  ASSERT_TRUE(report_or.is_ok());
  EXPECT_TRUE(report_or.value().violates("agreement"));
}

TEST(TaskCheck, KsaViaOPrimePasses) {
  // O' bundle: level k solves k-set agreement among n_k processes. Here
  // n = (2, ∞): level 1 = 2-consensus, level 2 = 2-SA.
  auto report_or = check_k_agreement_task(
      make_ksa_via_oprime({2, spec::kUnboundedPorts}, 2, iota_inputs(3)), 2,
      iota_inputs(3));
  ASSERT_TRUE(report_or.is_ok());
  EXPECT_TRUE(report_or.value().ok()) << report_or.value().to_string();

  auto report1_or = check_consensus_task(
      make_ksa_via_oprime({2, spec::kUnboundedPorts}, 1, iota_inputs(2)),
      iota_inputs(2));
  ASSERT_TRUE(report1_or.is_ok());
  EXPECT_TRUE(report1_or.value().ok()) << report1_or.value().to_string();
}

class DacExhaustive : public ::testing::TestWithParam<int> {};

TEST_P(DacExhaustive, AlgorithmTwoSolvesNDac) {
  // Theorem 4.1, machine-checked over all schedules: Algorithm 2 on one
  // n-PAC object satisfies every n-DAC property.
  const int n = GetParam();
  const auto inputs = iota_inputs(n);
  auto protocol = std::make_shared<DacFromPacProtocol>(inputs);
  auto report_or = check_dac_task(protocol, /*distinguished_pid=*/0, inputs);
  ASSERT_TRUE(report_or.is_ok());
  EXPECT_TRUE(report_or.value().ok()) << report_or.value().to_string();
}

INSTANTIATE_TEST_SUITE_P(Sizes, DacExhaustive, ::testing::Values(2, 3, 4));

TEST(TaskCheck, AlgorithmTwoWithOtherDistinguishedPid) {
  // The distinguished process need not be pid 0.
  const auto inputs = iota_inputs(3);
  auto protocol =
      std::make_shared<DacFromPacProtocol>(inputs, /*distinguished_pid=*/2);
  auto report_or = check_dac_task(protocol, 2, inputs);
  ASSERT_TRUE(report_or.is_ok());
  EXPECT_TRUE(report_or.value().ok()) << report_or.value().to_string();
}

TEST(TaskCheck, BinaryInputsDac) {
  // The paper states n-DAC with *binary* inputs; check 0/1 inputs including
  // the Theorem 4.2 initial configuration (p has 1, everyone else 0).
  const std::vector<Value> inputs{1, 0, 0};
  auto protocol = std::make_shared<DacFromPacProtocol>(inputs);
  auto report_or = check_dac_task(protocol, 0, inputs);
  ASSERT_TRUE(report_or.is_ok());
  EXPECT_TRUE(report_or.value().ok()) << report_or.value().to_string();
}

// ----------------------------- negative checks -----------------------------

TEST(TaskCheck, StrawDacFallbackViolatesAgreement) {
  const auto inputs = iota_inputs(3);  // n = 2, n+1 = 3 processes
  auto protocol = std::make_shared<StrawDacFallbackProtocol>(inputs);
  auto report_or = check_dac_task(protocol, 0, inputs);
  ASSERT_TRUE(report_or.is_ok());
  EXPECT_FALSE(report_or.value().ok());
  EXPECT_TRUE(report_or.value().violates("agreement"))
      << report_or.value().to_string();
}

// The (property, detail) pairs of a report, in report order.
std::vector<std::pair<std::string, std::string>> findings(
    const TaskReport& report) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const PropertyViolation& v : report.violations) {
    out.emplace_back(v.property, v.detail);
  }
  return out;
}

TEST(TaskCheck, StrawDacAnnounceViolatesTermination) {
  // The ⊥-receiver spinning on the announce register violates solo
  // termination — for p it is Termination(a), for q Termination(b). The
  // unreduced graph is walked and the reduced ones are re-simulated; both
  // must find the same cycle for every process.
  const auto inputs = iota_inputs(3);
  auto protocol = std::make_shared<StrawDacAnnounceProtocol>(inputs);
  const std::string cycle =
      " can take infinitely many solo steps without terminating";
  const std::vector<std::pair<std::string, std::string>> want = {
      {"termination(a)", "process p0" + cycle},
      {"termination(b)", "process p1" + cycle},
      {"termination(b)", "process p2" + cycle},
  };
  for (const Reduction reduction : {Reduction::kNone, Reduction::kSymmetry,
                                    Reduction::kPor, Reduction::kBoth}) {
    SCOPED_TRACE(reduction_name(reduction));
    TaskCheckOptions options;
    options.explore.reduction = reduction;
    auto report_or = check_dac_task(protocol, 0, inputs, options);
    ASSERT_TRUE(report_or.is_ok()) << report_or.status().to_string();
    EXPECT_EQ(findings(report_or.value()), want)
        << report_or.value().to_string();
  }
}

TEST(TaskCheck, SoloNodeBoundIsEnforcedWhenWalkingAndSimulating) {
  // dac3-sym under reduction none is walked; under symmetry and POR its
  // solo runs are re-simulated. A one-node budget trips in every mode,
  // for every process, at the root.
  auto task = make_named_task("dac3-sym");
  ASSERT_TRUE(task.is_ok());
  const std::vector<std::pair<std::string, std::string>> want = {
      {"termination(a)", "solo-run node budget exceeded for p0"},
      {"termination(b)", "solo-run node budget exceeded for p1"},
      {"termination(b)", "solo-run node budget exceeded for p2"},
  };
  for (const Reduction reduction :
       {Reduction::kNone, Reduction::kSymmetry, Reduction::kPor}) {
    SCOPED_TRACE(reduction_name(reduction));
    TaskCheckOptions options;
    options.explore.reduction = reduction;
    options.solo_node_bound = 1;
    auto report_or =
        check_dac_task(task.value().protocol, task.value().distinguished_pid,
                       task.value().inputs, options);
    ASSERT_TRUE(report_or.is_ok()) << report_or.status().to_string();
    EXPECT_EQ(findings(report_or.value()), want)
        << report_or.value().to_string();
    for (const PropertyViolation& v : report_or.value().violations) {
      EXPECT_TRUE(v.trace.empty()) << "the root is the first start node";
    }
  }
}

TEST(TaskCheck, StrawDacViaOPrimeViolatesAgreement) {
  // Theorem 6.5's predicted failure mode: driving (n+1)-DAC through an
  // actual O'_n object breaks agreement when the overflow proposer falls
  // back to the level-2 set-agreement member.
  const auto inputs = iota_inputs(3);  // n = 2
  auto protocol =
      std::make_shared<protocols::StrawDacOPrimeProtocol>(inputs);
  auto report_or = check_dac_task(protocol, 0, inputs);
  ASSERT_TRUE(report_or.is_ok());
  EXPECT_FALSE(report_or.value().ok());
  EXPECT_TRUE(report_or.value().violates("agreement"))
      << report_or.value().to_string();
}

TEST(TaskCheck, StrawNmConsensusViolatesAgreement) {
  // Theorem 5.2's predicted failure mode on the natural (m+1)-consensus
  // candidate over one (n,m)-PAC: the ⊥-receiver's PAC fallback decides its
  // own value against the PROPOSEC winner.
  const auto inputs = iota_inputs(3);  // m = 2, m+1 = 3 processes
  auto protocol =
      std::make_shared<protocols::StrawNmConsensusProtocol>(inputs, 3);
  auto report_or = check_consensus_task(protocol, inputs);
  ASSERT_TRUE(report_or.is_ok());
  EXPECT_FALSE(report_or.value().ok());
  EXPECT_TRUE(report_or.value().violates("agreement"))
      << report_or.value().to_string();
}

TEST(TaskCheck, FlpRaceViolatesTermination) {
  auto protocol = std::make_shared<FlpRaceProtocol>(5, 3);
  auto report_or = check_consensus_task(protocol, {5, 3});
  ASSERT_TRUE(report_or.is_ok());
  EXPECT_FALSE(report_or.value().ok());
  EXPECT_TRUE(report_or.value().violates("termination"))
      << report_or.value().to_string();
}

TEST(TaskCheck, ViolationReportCarriesTrace) {
  auto protocol = std::make_shared<StrawDacFallbackProtocol>(iota_inputs(3));
  auto report_or = check_dac_task(protocol, 0, iota_inputs(3));
  ASSERT_TRUE(report_or.is_ok());
  ASSERT_FALSE(report_or.value().ok());
  const auto& violation = report_or.value().violations.front();
  EXPECT_FALSE(violation.trace.empty());
  EXPECT_NE(report_or.value().to_string().find("VIOLATION"),
            std::string::npos);
}

TEST(TaskCheck, BudgetExhaustionSurfacesAsStatus) {
  auto protocol = std::make_shared<DacFromPacProtocol>(iota_inputs(3));
  TaskCheckOptions options;
  options.explore.max_nodes = 3;
  auto report_or = check_dac_task(protocol, 0, iota_inputs(3), options);
  EXPECT_FALSE(report_or.is_ok());
  EXPECT_EQ(report_or.status().code(), StatusCode::kResourceExhausted);
}

TEST(TaskCheck, InterruptedCheckIsNotAVerdict) {
  // A check cut off at a level boundary certifies only the explored prefix:
  // the clean dac6 prefix and the broken strawdac5, whose violation lies
  // deeper, both come back clean but flagged interrupted, so neither may be
  // read as a verdict.
  for (const char* name : {"dac6", "strawdac5"}) {
    SCOPED_TRACE(name);
    auto task = make_named_task(name);
    ASSERT_TRUE(task.is_ok());
    TaskCheckOptions options;
    options.explore.max_levels = 3;

    auto report_or =
        check_dac_task(task.value().protocol, task.value().distinguished_pid,
                       task.value().inputs, options);
    ASSERT_TRUE(report_or.is_ok()) << report_or.status().to_string();
    EXPECT_TRUE(report_or.value().interrupted);
    EXPECT_FALSE(report_or.value().partial);
    EXPECT_TRUE(report_or.value().ok()) << report_or.value().to_string();
  }
}

TEST(TaskCheck, UnreducedGraphEdgesAreExactlyTheSoloSuccessors) {
  // The solo-termination walk treats a node's pid-labelled edges as pid's
  // solo successors. Check that against the step function alone: on the
  // unreduced graph every running pid's edges list exactly
  // enumerate_successors(config, pid), in order. Four threads under the
  // auto engine send dac6's wide levels through the worker pool.
  for (const std::string& name : named_task_names()) {
    if (name == "groupksa" || name == "benor") continue;
    SCOPED_TRACE(name);
    auto task_or = make_named_task(name);
    ASSERT_TRUE(task_or.is_ok());
    const NamedTask& task = task_or.value();
    ExploreOptions options;
    options.threads = 4;
    // DAC tasks are explored as check_dac_task explores them: with the
    // "has a process other than p stepped" flag.
    const int p = task.distinguished_pid;
    Explorer::FlagFn flag_fn;
    if (p >= 0) {
      flag_fn = [p](std::int64_t flag, const sim::Step& step) {
        return step.pid != p ? std::int64_t{1} : flag;
      };
    }
    auto graph_or = Explorer(task.protocol).explore(options, flag_fn);
    ASSERT_TRUE(graph_or.is_ok()) << graph_or.status().to_string();
    const ConfigGraph& graph = graph_or.value();
    ASSERT_FALSE(graph.truncated() || graph.interrupted());
    if (name == "dac6") {
      EXPECT_EQ(graph.engine_used(), ExploreEngine::kParallel);
    }

    std::vector<sim::Successor> succs;
    std::vector<Edge> pid_edges;
    for (std::uint32_t u = 0; u < graph.node_count(); ++u) {
      const sim::Config config = graph.config(u);
      for (int pid = 0; pid < task.protocol->process_count(); ++pid) {
        pid_edges.clear();
        for (const Edge& e : graph.edges(u)) {
          if (e.pid == pid) pid_edges.push_back(e);
        }
        succs.clear();
        if (config.enabled(pid)) {
          sim::enumerate_successors(*task.protocol, config, pid, &succs);
        }
        ASSERT_EQ(pid_edges.size(), succs.size())
            << "node " << u << " pid " << pid;
        for (std::size_t i = 0; i < succs.size(); ++i) {
          const std::uint32_t target = pid_edges[i].to;
          ASSERT_TRUE(graph.config(target) == succs[i].config)
              << "node " << u << " pid " << pid << " edge " << i;
          ASSERT_EQ(pid_edges[i].kind, succs[i].step.action.kind)
              << "node " << u << " pid " << pid << " edge " << i;
          if (flag_fn) {
            ASSERT_EQ(graph.flag(target), flag_fn(graph.flag(u), succs[i].step))
                << "node " << u << " pid " << pid << " edge " << i;
          }
        }
      }
    }
  }
}

// Value of a counter in the global registry's snapshot (0 if unregistered).
std::uint64_t counter_value(const std::string& name) {
  for (const auto& row : obs::Registry::global().snapshot().counters) {
    if (row.name == name) return row.value;
  }
  return 0;
}

TEST(TaskCheck, SoloCountersShowWhichPathRan) {
#if defined(LBSA_OBS_DISABLED)
  GTEST_SKIP() << "counters are compiled out under LBSA_OBS_DISABLED";
#endif
  // If the dispatch fell back to simulating everywhere, verdicts would not
  // change; these counts would.
  struct Case {
    const char* task;
    Reduction reduction;
    bool walks;
  };
  for (const Case& c : {Case{"dac5", Reduction::kNone, true},
                        Case{"dac5-sym", Reduction::kSymmetry, false}}) {
    SCOPED_TRACE(c.task);
    auto task = make_named_task(c.task);
    ASSERT_TRUE(task.is_ok());
    TaskCheckOptions options;
    options.explore.reduction = c.reduction;
    obs::Registry::global().reset_values();
    obs::set_metrics_enabled(true);
    auto report_or =
        check_dac_task(task.value().protocol, task.value().distinguished_pid,
                       task.value().inputs, options);
    obs::set_metrics_enabled(false);
    ASSERT_TRUE(report_or.is_ok()) << report_or.status().to_string();
    EXPECT_TRUE(report_or.value().ok()) << report_or.value().to_string();
    const std::uint64_t walked = counter_value("task_check.solo.walked");
    const std::uint64_t simulated =
        counter_value("task_check.solo.simulated");
    if (c.walks) {
      EXPECT_GT(walked, 0u);
      EXPECT_EQ(simulated, 0u);
    } else {
      EXPECT_EQ(walked, 0u);
      EXPECT_GT(simulated, 0u);
    }
  }
}

}  // namespace
}  // namespace lbsa::modelcheck
