// Interactive simulation engine: one Config driven step by step, either
// manually (step/crash) or by an Adversary (run). Records the full step
// history for later analysis (task-property checking, diagnostics).
#ifndef LBSA_SIM_SIMULATION_H_
#define LBSA_SIM_SIMULATION_H_

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "sim/config.h"
#include "sim/scheduler.h"

namespace lbsa::sim {

struct RunOptions {
  std::uint64_t max_steps = 1'000'000;
  bool record_history = true;
};

struct RunResult {
  std::uint64_t steps = 0;
  bool all_terminated = false;     // every process decided/aborted/crashed
  bool stopped_by_adversary = false;
  bool hit_step_limit = false;
};

class Simulation {
 public:
  explicit Simulation(std::shared_ptr<const Protocol> protocol);

  const Protocol& protocol() const { return *protocol_; }
  const Config& config() const { return config_; }
  int process_count() const { return protocol_->process_count(); }

  // Single manual step of pid (must be enabled); returns the step taken.
  Step step(int pid, int outcome_choice = 0);

  // Like step, but returns nullopt and leaves the simulation unchanged if
  // pid's step has no outcome outcome_choice (negative or too large).
  std::optional<Step> try_step(int pid, int outcome_choice);

  // Marks pid crashed (idempotent for already-terminated processes).
  void crash(int pid);

  // Drives the simulation with `adversary` until every process terminated,
  // the adversary stops, or max_steps is hit.
  RunResult run(Adversary* adversary, const RunOptions& options = {});

  const std::vector<Step>& history() const { return history_; }

  // Distinct values decided so far, in sorted order.
  std::vector<Value> distinct_decisions() const;
  // The decision of pid (kNil if it has not decided).
  Value decision_of(int pid) const;

  // Resets to the initial configuration and clears the history.
  void reset();

  std::string dump() const;

 private:
  // Counts one executed step and commits outcome outcome_choice of the step
  // prepared_ holds.
  Step commit(int outcome_choice);

  std::shared_ptr<const Protocol> protocol_;
  Config config_;
  PreparedStep prepared_;  // reused by every step
  std::vector<Step> history_;
};

}  // namespace lbsa::sim

#endif  // LBSA_SIM_SIMULATION_H_
