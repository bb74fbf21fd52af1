// Schedule shrinking: delta-debugging for fuzz counterexamples. A raw fuzz
// violation is a multi-thousand-step (pid, outcome) schedule; the shrinker
// reduces it to a minimal schedule that still violates the *same* safety
// property on replay, by repeatedly proposing a smaller candidate and
// re-running it:
//
//   * suffix truncation — the replay stops at the first violating step, so
//     every accepted candidate is automatically violation-minimal on the
//     right;
//   * chunk removal — ddmin-style deletion with halving chunk sizes;
//   * crash-event removal — injected crashes that the violation does not
//     need are dropped first (they remove whole branches of behaviour);
//   * outcome canonicalization — nondeterministic outcome choices are
//     rewritten to 0 where the violation survives.
//
// Candidates are executed *leniently* (entries naming a terminated process
// are skipped, out-of-range outcomes fall back to 0 — the hardened
// ScriptedAdversary semantics), and every accepted candidate is replaced by
// its *effective* schedule: exactly the steps that executed. Effective
// schedules are strict — sim::replay_schedule accepts them verbatim — so
// the shrinker's output can be checked into a corpus and replayed forever.
#ifndef LBSA_MODELCHECK_SHRINK_H_
#define LBSA_MODELCHECK_SHRINK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/scheduler.h"
#include "sim/trace.h"

namespace lbsa::modelcheck {

// A safety judge: maps a configuration to the violated property and a
// human-readable detail, or ("", "") if every property holds. Factories for
// the paper's tasks live in modelcheck/fuzz.h (k_agreement_safety,
// dac_safety).
//
// Contract: a judge reads only process statuses and decisions. A decision
// task's safety is a property of its output vector, so two configurations
// that agree on every status and decision get the same verdict. The fuzzer
// relies on this: it judges a run again only after an event that changed
// some status or decision since the last judgement.
using SafetyPredicate =
    std::function<std::pair<std::string, std::string>(const sim::Config&)>;

// Result of one lenient schedule execution.
struct ReplayOutcome {
  // The steps and crashes that actually executed, in order; always a
  // strict-valid schedule (replay_schedule accepts it).
  std::vector<sim::ScriptedAdversary::Choice> effective;
  std::string property;  // violated property ("" if the run stayed clean)
  std::string detail;

  bool violated() const { return !property.empty(); }
};

// Applies one schedule event to *config in place with the lenient
// semantics described above, preparing the step into *prepared. An event
// naming an out-of-range pid, a crash of a process that is not running, or
// a step of one that is not enabled is skipped (nullopt); an out-of-range
// outcome falls back to 0. Returns the event as it executed. Counts
// sim.steps and sim.crashes, as Simulation does. Shared by the shrinker's
// replay and the fuzzer's replay of a mutated prefix.
std::optional<sim::ScriptedAdversary::Choice> lenient_step(
    const sim::Protocol& protocol,
    const sim::ScriptedAdversary::Choice& event, sim::Config* config,
    sim::PreparedStep* prepared);

// Executes `schedule` from the initial configuration of `protocol` with the
// lenient semantics described above, evaluating `judge` after every step
// and stopping at the first violation.
ReplayOutcome run_schedule_lenient(
    const std::shared_ptr<const sim::Protocol>& protocol,
    const std::vector<sim::ScriptedAdversary::Choice>& schedule,
    const SafetyPredicate& judge);

struct ShrinkOptions {
  // Hard cap on candidate replays (the dominant cost driver).
  std::uint64_t max_replays = 4000;
  // Full passes (crash removal + ddmin + outcome canonicalization) until
  // fixpoint.
  int max_rounds = 16;
};

struct ShrinkStats {
  std::size_t raw_steps = 0;
  std::size_t shrunk_steps = 0;
  std::uint64_t replays = 0;
  int rounds = 0;
};

// Shrinks `schedule` while replays keep violating `property` under `judge`.
// Returns the smallest schedule found (the normalized input if no deletion
// helped; the input itself if the violation fails to reproduce at all).
// Deterministic: no randomness, so equal inputs give equal outputs.
std::vector<sim::ScriptedAdversary::Choice> shrink_schedule(
    const std::shared_ptr<const sim::Protocol>& protocol,
    const std::vector<sim::ScriptedAdversary::Choice>& schedule,
    const SafetyPredicate& judge, const std::string& property,
    const ShrinkOptions& options = {}, ShrinkStats* stats = nullptr);

}  // namespace lbsa::modelcheck

#endif  // LBSA_MODELCHECK_SHRINK_H_
