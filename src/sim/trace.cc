#include "sim/trace.h"

#include <charconv>

namespace lbsa::sim {

std::string schedule_to_string(const Protocol& protocol,
                               const std::vector<Step>& steps) {
  std::string out = "# schedule for " + protocol.name() + " (" +
                    std::to_string(steps.size()) + " steps)\n";
  for (const Step& step : steps) {
    out += std::to_string(step.pid);
    if (step.outcome_choice != 0) {
      out += ":" + std::to_string(step.outcome_choice);
    }
    out += "  # " + step.to_string(protocol) + "\n";
  }
  return out;
}

std::string schedule_to_string(
    const std::vector<ScriptedAdversary::Choice>& schedule) {
  std::string out;
  for (const ScriptedAdversary::Choice& choice : schedule) {
    if (choice.crash) {
      out += '!';
      out += std::to_string(choice.pid);
    } else {
      out += std::to_string(choice.pid);
      if (choice.outcome != 0) {
        out += ':' + std::to_string(choice.outcome);
      }
    }
    out += '\n';
  }
  return out;
}

StatusOr<std::vector<ScriptedAdversary::Choice>> parse_schedule(
    const std::string& text) {
  std::vector<ScriptedAdversary::Choice> schedule;
  std::size_t pos = 0;
  int line_number = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    std::string_view line(text.data() + pos, end - pos);
    pos = end + 1;
    ++line_number;

    // Strip trailing comment and whitespace.
    if (const auto hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    while (!line.empty() && (line.back() == ' ' || line.back() == '\t' ||
                             line.back() == '\r')) {
      line.remove_suffix(1);
    }
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t')) {
      line.remove_prefix(1);
    }
    if (line.empty()) continue;

    ScriptedAdversary::Choice choice{0, 0, false};
    if (line.front() == '!') {
      choice.crash = true;
      line.remove_prefix(1);
    }
    const char* begin = line.data();
    const char* stop = line.data() + line.size();
    auto [after_pid, pid_err] = std::from_chars(begin, stop, choice.pid);
    if (pid_err != std::errc{} || choice.pid < 0) {
      return invalid_argument("schedule line " + std::to_string(line_number) +
                              ": expected pid");
    }
    if (choice.crash && after_pid != stop) {
      return invalid_argument("schedule line " + std::to_string(line_number) +
                              ": crash event takes no outcome");
    }
    if (after_pid != stop) {
      if (*after_pid != ':') {
        return invalid_argument("schedule line " +
                                std::to_string(line_number) +
                                ": expected ':' before outcome");
      }
      auto [after_outcome, outcome_err] =
          std::from_chars(after_pid + 1, stop, choice.outcome);
      if (outcome_err != std::errc{} || after_outcome != stop ||
          choice.outcome < 0) {
        return invalid_argument("schedule line " +
                                std::to_string(line_number) +
                                ": malformed outcome");
      }
    }
    schedule.push_back(choice);
  }
  return schedule;
}

StatusOr<Simulation> replay_schedule(
    std::shared_ptr<const Protocol> protocol,
    const std::vector<ScriptedAdversary::Choice>& schedule) {
  Simulation simulation(std::move(protocol));
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const auto [pid, outcome, crash] = schedule[i];
    if (crash) {
      if (pid < 0 || pid >= simulation.process_count()) {
        return failed_precondition("replay step " + std::to_string(i) +
                                   ": crash pid out of range");
      }
      simulation.crash(pid);
      continue;
    }
    if (pid < 0 || pid >= simulation.process_count()) {
      return failed_precondition("replay step " + std::to_string(i) +
                                 ": pid out of range");
    }
    if (!simulation.config().enabled(pid)) {
      return failed_precondition("replay step " + std::to_string(i) +
                                 ": process p" + std::to_string(pid) +
                                 " is not running");
    }
    if (!simulation.try_step(pid, outcome)) {
      return failed_precondition("replay step " + std::to_string(i) +
                                 ": outcome choice out of range");
    }
  }
  return simulation;
}

}  // namespace lbsa::sim
