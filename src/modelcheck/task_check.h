// Machine checkers for the decision tasks of the paper: k-set agreement
// (consensus = 1-set agreement) and the n-DAC problem of Section 4. Each
// checker explores the protocol's full configuration graph and verifies the
// task's properties over *all* schedules and all nondeterministic object
// behaviours, reporting a concrete counterexample trace on failure.
//
// Property glossary (paper, Sections 1 and 4):
//   k-set agreement: Agreement (at most k distinct decisions), Validity
//   (decisions were proposed), Wait-free termination (no process can take
//   infinitely many steps without deciding).
//   n-DAC: Agreement, Validity (a decided value is the input of some process
//   that does not abort), Termination (a): the distinguished process p
//   running forever decides or aborts; Termination (b): any q != p running
//   solo decides; Nontriviality: p aborts only if some q != p took a step.
#ifndef LBSA_MODELCHECK_TASK_CHECK_H_
#define LBSA_MODELCHECK_TASK_CHECK_H_

#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "modelcheck/explorer.h"

namespace lbsa::modelcheck {

struct TaskCheckOptions {
  // explore.threads > 1 (or 0 = auto) builds the configuration graph with
  // the parallel explorer; results are identical by the canonical-graph
  // guarantee (see docs/checking.md, "Parallel exploration"). When the
  // exploration ran some level on its worker pool, the checks' node scan
  // and solo walks run on the same thread count, with the same reports
  // (docs/checking.md, "Engine selection").
  // explore.reduction enables symmetry / partial-order reduction: verdicts
  // (which properties are violated, and clean reports) are preserved, but
  // violation *counts* and reported node counts shrink with the graph, and
  // counterexample traces are lifted representatives rather than the
  // lexicographically-first full-graph witness. check_dac_task additionally
  // requires the symmetry group to fix the distinguished process and
  // returns INVALID_ARGUMENT otherwise (the nontriviality flag must be
  // group-invariant).
  ExploreOptions explore;
  // Node budget for each solo-run termination check.
  std::uint64_t solo_node_bound = 100'000;
  // Stop after this many violations (keeps reports readable). Below 1 the
  // checkers return INVALID_ARGUMENT.
  int max_violations = 8;
};

struct PropertyViolation {
  std::string property;  // e.g. "agreement", "termination(b)"
  std::string detail;
  std::vector<std::string> trace;  // formatted steps from the initial config
};

struct TaskReport {
  std::vector<PropertyViolation> violations;
  std::uint64_t node_count = 0;
  std::uint64_t transition_count = 0;
  // Sum of orbit sizes over explored nodes: on a complete exploration this
  // equals the full (unreduced) graph's node count under pure symmetry
  // reduction and lower-bounds it under POR; equals node_count when no
  // reduction is enabled. The hierarchy sweep derives reduction ratios from
  // it without re-exploring the full graph.
  std::uint64_t full_node_estimate = 0;
  // True iff the underlying exploration was truncated (see
  // ExploreOptions::allow_truncation): violations are real, but a clean
  // report certifies only the explored region.
  bool partial = false;
  // True iff the underlying exploration stopped early at a level boundary
  // (cancel, deadline or max_levels; see ConfigGraph::interrupted()). As
  // with `partial`, violations are real but a clean report certifies only
  // the explored prefix.
  bool interrupted = false;

  bool ok() const { return violations.empty(); }
  // True iff some violation is for `property`.
  bool violates(const std::string& property) const;
  std::string to_string() const;
};

// Checks Agreement(k), Validity, wait-free Termination, and absence of
// aborts for a k-set-agreement protocol whose process inputs are `inputs`
// (inputs.size() == process_count). When `explored` is non-null it receives
// the graph the check judged.
StatusOr<TaskReport> check_k_agreement_task(
    std::shared_ptr<const sim::Protocol> protocol, int k,
    const std::vector<Value>& inputs, const TaskCheckOptions& options = {},
    ConfigGraph* explored = nullptr);

// Consensus is 1-set agreement.
inline StatusOr<TaskReport> check_consensus_task(
    std::shared_ptr<const sim::Protocol> protocol,
    const std::vector<Value>& inputs, const TaskCheckOptions& options = {}) {
  return check_k_agreement_task(std::move(protocol), 1, inputs, options);
}

// Checks the n-DAC properties with `distinguished_pid` as the process p.
// When `explored` is non-null it receives the graph the check judged.
StatusOr<TaskReport> check_dac_task(
    std::shared_ptr<const sim::Protocol> protocol, int distinguished_pid,
    const std::vector<Value>& inputs, const TaskCheckOptions& options = {},
    ConfigGraph* explored = nullptr);

}  // namespace lbsa::modelcheck

#endif  // LBSA_MODELCHECK_TASK_CHECK_H_
