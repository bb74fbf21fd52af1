#include "sim/simulation.h"

#include <algorithm>

#include "base/check.h"
#include "obs/obs.h"

namespace lbsa::sim {

Simulation::Simulation(std::shared_ptr<const Protocol> protocol)
    : protocol_(std::move(protocol)) {
  LBSA_CHECK(protocol_ != nullptr);
  LBSA_CHECK(protocol_->process_count() >= 1);
  config_ = initial_config(*protocol_);
}

Step Simulation::step(int pid, int outcome_choice) {
  const std::optional<Step> s = try_step(pid, outcome_choice);
  LBSA_CHECK_MSG(s.has_value(), "outcome_choice out of range");
  return *s;
}

std::optional<Step> Simulation::try_step(int pid, int outcome_choice) {
  prepare_step(*protocol_, config_, pid, &prepared_);
  if (outcome_choice < 0 || outcome_choice >= prepared_.outcome_count()) {
    return std::nullopt;
  }
  Step s = commit(outcome_choice);
  history_.push_back(s);
  return s;
}

Step Simulation::commit(int outcome_choice) {
  // Volatile: step totals depend on who drives the simulation (fuzz workers
  // keep stepping past the deterministic report cutoff).
  LBSA_OBS_COUNTER_ADD_V("sim.steps", 1);
  return commit_step(*protocol_, &config_, outcome_choice, &prepared_);
}

void Simulation::crash(int pid) {
  ProcessState& ps = config_.procs[static_cast<size_t>(pid)];
  if (ps.running()) {
    LBSA_OBS_COUNTER_ADD_V("sim.crashes", 1);
    ps.status = ProcStatus::kCrashed;
  }
}

RunResult Simulation::run(Adversary* adversary, const RunOptions& options) {
  LBSA_CHECK(adversary != nullptr);
  RunResult result;
  for (std::uint64_t i = 0; i < options.max_steps; ++i) {
    for (int pid : adversary->crashes(config_, i)) crash(pid);
    if (config_.halted()) {
      result.all_terminated = true;
      result.steps = i;
      return result;
    }
    const int pid = adversary->pick_process(config_, i);
    if (pid == Adversary::kStop) {
      result.stopped_by_adversary = true;
      result.steps = i;
      return result;
    }
    LBSA_CHECK_MSG(config_.enabled(pid), "adversary picked a halted process");
    prepare_step(*protocol_, config_, pid, &prepared_);
    Step s = commit(adversary->pick_outcome(prepared_.outcome_count(), i));
    if (options.record_history) history_.push_back(s);
  }
  result.steps = options.max_steps;
  result.hit_step_limit = !config_.halted();
  result.all_terminated = config_.halted();
  return result;
}

std::vector<Value> Simulation::distinct_decisions() const {
  std::vector<Value> out;
  for (const ProcessState& ps : config_.procs) {
    if (ps.decided()) out.push_back(ps.decision);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Value Simulation::decision_of(int pid) const {
  const ProcessState& ps = config_.procs[static_cast<size_t>(pid)];
  return ps.decided() ? ps.decision : kNil;
}

void Simulation::reset() {
  config_ = initial_config(*protocol_);
  history_.clear();
}

std::string Simulation::dump() const {
  std::string out = protocol_->name() + ":\n";
  for (size_t pid = 0; pid < config_.procs.size(); ++pid) {
    out += "  p" + std::to_string(pid) + " " +
           config_.procs[pid].to_string() + "\n";
  }
  for (size_t i = 0; i < config_.objects.size(); ++i) {
    const auto& type = *protocol_->objects()[i];
    out += "  obj" + std::to_string(i) + " (" + type.name() +
           ") = " + type.state_to_string(config_.objects[i]) + "\n";
  }
  return out;
}

}  // namespace lbsa::sim
