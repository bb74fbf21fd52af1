#include "modelcheck/shrink.h"

#include <algorithm>

#include "obs/obs.h"

namespace lbsa::modelcheck {

std::optional<sim::ScriptedAdversary::Choice> lenient_step(
    const sim::Protocol& protocol,
    const sim::ScriptedAdversary::Choice& event, sim::Config* config,
    sim::PreparedStep* prepared) {
  const int pid = event.pid;
  if (pid < 0 || pid >= static_cast<int>(config->procs.size())) {
    return std::nullopt;
  }
  // A crash of a process that is not running, or a step of one, is a no-op
  // in a lenient replay: the event is dropped.
  if (!config->enabled(pid)) return std::nullopt;
  if (event.crash) {
    LBSA_OBS_COUNTER_ADD_V("sim.crashes", 1);
    config->procs[static_cast<size_t>(pid)].status = sim::ProcStatus::kCrashed;
    return sim::ScriptedAdversary::Choice{pid, 0, true};
  }
  sim::prepare_step(protocol, *config, pid, prepared);
  const int outcome =
      (event.outcome >= 0 && event.outcome < prepared->outcome_count())
          ? event.outcome
          : 0;
  LBSA_OBS_COUNTER_ADD_V("sim.steps", 1);
  sim::commit_step(protocol, config, outcome, prepared);
  return sim::ScriptedAdversary::Choice{pid, outcome, false};
}

ReplayOutcome run_schedule_lenient(
    const std::shared_ptr<const sim::Protocol>& protocol,
    const std::vector<sim::ScriptedAdversary::Choice>& schedule,
    const SafetyPredicate& judge) {
  ReplayOutcome out;
  sim::Config config = sim::initial_config(*protocol);
  sim::PreparedStep prepared;
  for (const sim::ScriptedAdversary::Choice& event : schedule) {
    const auto taken = lenient_step(*protocol, event, &config, &prepared);
    if (!taken) continue;
    out.effective.push_back(*taken);
    if (taken->crash) continue;
    auto [property, detail] = judge(config);
    if (!property.empty()) {
      out.property = std::move(property);
      out.detail = std::move(detail);
      break;
    }
  }
  return out;
}

std::vector<sim::ScriptedAdversary::Choice> shrink_schedule(
    const std::shared_ptr<const sim::Protocol>& protocol,
    const std::vector<sim::ScriptedAdversary::Choice>& schedule,
    const SafetyPredicate& judge, const std::string& property,
    const ShrinkOptions& options, ShrinkStats* stats) {
  using Choice = sim::ScriptedAdversary::Choice;
  ShrinkStats local;
  ShrinkStats& s = stats != nullptr ? *stats : local;
  s = ShrinkStats{};  // caller-provided stats may be reused across calls
  s.raw_steps = schedule.size();

  // Normalize: truncate at the first violating step and strictify. If the
  // violation does not reproduce at all, hand the input back untouched.
  ReplayOutcome base = run_schedule_lenient(protocol, schedule, judge);
  s.replays = 1;
  LBSA_OBS_COUNTER_ADD("shrink.replays", 1);
  if (base.property != property) {
    s.shrunk_steps = schedule.size();
    return schedule;
  }
  std::vector<Choice> current = std::move(base.effective);

  // Replays `candidate`; on same-property violation adopts its effective
  // schedule as the new current and reports success.
  auto attempt = [&](std::vector<Choice> candidate) -> bool {
    if (s.replays >= options.max_replays) return false;
    ++s.replays;
    LBSA_OBS_COUNTER_ADD("shrink.replays", 1);
    ReplayOutcome r = run_schedule_lenient(protocol, candidate, judge);
    if (r.property != property) return false;
    current = std::move(r.effective);
    return true;
  };

  bool progress = true;
  while (progress && s.rounds < options.max_rounds &&
         s.replays < options.max_replays) {
    progress = false;
    ++s.rounds;
    // One phase span per ddmin round; round counts are deterministic, so
    // these participate in trace-count determinism comparisons.
    LBSA_OBS_SPAN(round_span, "shrink.round", obs::kCatPhase, /*lane=*/0);
    round_span.arg("round", static_cast<std::int64_t>(s.rounds));
    round_span.arg("size", static_cast<std::int64_t>(current.size()));

    // Pass 1: drop crash events the violation does not need.
    for (std::size_t i = 0; i < current.size();) {
      if (current[i].crash) {
        std::vector<Choice> candidate = current;
        candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
        if (attempt(std::move(candidate))) {
          progress = true;
          continue;  // current changed; re-examine index i
        }
      }
      ++i;
    }

    // Pass 2: ddmin chunk removal, halving chunk sizes down to single steps.
    for (std::size_t chunk = std::max<std::size_t>(current.size() / 2, 1);;
         chunk /= 2) {
      std::size_t start = 0;
      while (start < current.size() && s.replays < options.max_replays) {
        std::vector<Choice> candidate = current;
        const std::size_t len = std::min(chunk, current.size() - start);
        candidate.erase(
            candidate.begin() + static_cast<std::ptrdiff_t>(start),
            candidate.begin() + static_cast<std::ptrdiff_t>(start + len));
        if (attempt(std::move(candidate))) {
          progress = true;  // current shrank; retry the same start offset
        } else {
          start += chunk;
        }
      }
      if (chunk == 1) break;
    }

    // Pass 3: canonicalize nondeterministic outcome choices to 0.
    for (std::size_t i = 0; i < current.size(); ++i) {
      if (!current[i].crash && current[i].outcome != 0) {
        std::vector<Choice> candidate = current;
        candidate[i].outcome = 0;
        if (attempt(std::move(candidate))) progress = true;
      }
    }
  }

  s.shrunk_steps = current.size();
  LBSA_OBS_COUNTER_ADD("shrink.rounds", s.rounds);
  LBSA_OBS_COUNTER_ADD("shrink.schedules", 1);
  return current;
}

}  // namespace lbsa::modelcheck
