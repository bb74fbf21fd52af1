#include "sim/scheduler.h"

#include <cstdio>
#include <string>

namespace lbsa::sim {

int Adversary::pick_outcome(int /*outcome_count*/, std::uint64_t /*step*/) {
  return 0;
}

std::vector<int> Adversary::crashes(const Config& /*config*/,
                                    std::uint64_t /*step_index*/) {
  return {};
}

int RoundRobinAdversary::pick_process(const Config& config,
                                      std::uint64_t /*step_index*/) {
  const int n = static_cast<int>(config.procs.size());
  for (int tried = 0; tried < n; ++tried) {
    const int pid = (cursor_ + tried) % n;
    if (config.enabled(pid)) {
      cursor_ = (pid + 1) % n;
      return pid;
    }
  }
  return kStop;
}

int RandomAdversary::pick_process(const Config& config,
                                  std::uint64_t /*step_index*/) {
  const int enabled = config.enabled_count();
  if (enabled == 0) return kStop;
  return config.nth_enabled(static_cast<int>(
      rng_.next_below(static_cast<std::uint64_t>(enabled))));
}

int RandomAdversary::pick_outcome(int outcome_count,
                                  std::uint64_t /*step_index*/) {
  if (outcome_count <= 1) return 0;
  return static_cast<int>(
      rng_.next_below(static_cast<std::uint64_t>(outcome_count)));
}

int SoloAdversary::pick_process(const Config& config,
                                std::uint64_t /*step_index*/) {
  return config.enabled(pid_) ? pid_ : kStop;
}

int SoloAdversary::pick_outcome(int outcome_count, std::uint64_t /*step*/) {
  return outcome_choice_ < outcome_count ? outcome_choice_ : 0;
}

void ScriptedAdversary::note(const std::string& message) {
  if (diagnostic_.empty()) {
    std::fprintf(stderr, "ScriptedAdversary: %s\n", message.c_str());
  }
  diagnostic_ += message;
  diagnostic_ += '\n';
}

int ScriptedAdversary::pick_process(const Config& config,
                                    std::uint64_t /*step_index*/) {
  const int n = static_cast<int>(config.procs.size());
  while (cursor_ < script_.size()) {
    const Choice& choice = script_[cursor_];
    if (choice.crash) {
      // Crash entries belong to crashes(); reaching one here means the
      // driver never asked. Skip it rather than step a crashed-on-paper pid.
      note("step " + std::to_string(cursor_) + ": unapplied crash entry !" +
           std::to_string(choice.pid) + " skipped");
      ++cursor_;
      continue;
    }
    if (choice.pid < 0 || choice.pid >= n) {
      note("step " + std::to_string(cursor_) + ": pid " +
           std::to_string(choice.pid) + " out of range [0, " +
           std::to_string(n) + "); stopping");
      cursor_ = script_.size();
      return kStop;
    }
    if (config.enabled(choice.pid)) return choice.pid;
    note("step " + std::to_string(cursor_) + ": skipping p" +
         std::to_string(choice.pid) + " (already terminated)");
    ++cursor_;
  }
  return kStop;
}

int ScriptedAdversary::pick_outcome(int outcome_count,
                                    std::uint64_t /*step_index*/) {
  const int choice =
      cursor_ < script_.size() ? script_[cursor_].outcome : 0;
  ++cursor_;
  if (choice < 0 || choice >= outcome_count) {
    note("step " + std::to_string(cursor_ - 1) + ": outcome choice " +
         std::to_string(choice) + " out of range [0, " +
         std::to_string(outcome_count) + "); using 0");
    return 0;
  }
  return choice;
}

std::vector<int> ScriptedAdversary::crashes(const Config& config,
                                            std::uint64_t /*step_index*/) {
  const int n = static_cast<int>(config.procs.size());
  std::vector<int> out;
  while (cursor_ < script_.size() && script_[cursor_].crash) {
    const int pid = script_[cursor_].pid;
    ++cursor_;
    if (pid < 0 || pid >= n) {
      note("crash entry !" + std::to_string(pid) + " out of range [0, " +
           std::to_string(n) + "); dropped");
      continue;
    }
    out.push_back(pid);
  }
  return out;
}

int CrashingAdversary::pick_process(const Config& config,
                                    std::uint64_t step_index) {
  return inner_->pick_process(config, step_index);
}

int CrashingAdversary::pick_outcome(int outcome_count,
                                    std::uint64_t step_index) {
  return inner_->pick_outcome(outcome_count, step_index);
}

std::vector<int> CrashingAdversary::crashes(const Config& /*config*/,
                                            std::uint64_t step_index) {
  std::vector<int> out;
  for (const CrashEvent& e : events_) {
    if (e.step_index == step_index) out.push_back(e.pid);
  }
  return out;
}

}  // namespace lbsa::sim
