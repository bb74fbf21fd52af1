// Trace serialization: schedules (the (pid, outcome) choice sequences that
// drive a Simulation) round-trip through a compact text format, so that any
// counterexample or interesting run can be saved, shared, and replayed
// exactly.
//
// Format: one event per line. A step is `pid[:outcome]` (outcome omitted
// when 0); a crash event is `!pid` (crash pid before the next step). Blank
// lines and lines starting with '#' are ignored.
//
//   # 3-DAC agreement counterexample
//   0
//   1:1
//   !2
//   2
#ifndef LBSA_SIM_TRACE_H_
#define LBSA_SIM_TRACE_H_

#include <string>
#include <vector>

#include "base/status.h"
#include "sim/scheduler.h"
#include "sim/simulation.h"

namespace lbsa::sim {

// Serializes recorded steps as a replayable schedule (with a human-readable
// comment per step describing the action taken).
std::string schedule_to_string(const Protocol& protocol,
                               const std::vector<Step>& steps);

// Serializes an explicit choice script — including crash events — in the
// canonical form of the text format: `pid[:outcome]` with outcome 0
// omitted, `!pid` for crashes, no comments. format → parse → format is the
// identity on canonical text, and parse(schedule_to_string(s)) == s for
// every script s.
std::string schedule_to_string(
    const std::vector<ScriptedAdversary::Choice>& schedule);

// Parses a schedule. Rejects malformed lines with INVALID_ARGUMENT.
StatusOr<std::vector<ScriptedAdversary::Choice>> parse_schedule(
    const std::string& text);

// Replays a schedule on a fresh simulation of `protocol`. Fails with
// FAILED_PRECONDITION if the schedule names a halted process or an
// out-of-range outcome (negative, or past the step's outcomes) at any
// point. Crash events are applied with
// Simulation::crash (idempotent on already-terminated processes); a crash
// of an out-of-range pid fails.
StatusOr<Simulation> replay_schedule(
    std::shared_ptr<const Protocol> protocol,
    const std::vector<ScriptedAdversary::Choice>& schedule);

}  // namespace lbsa::sim

#endif  // LBSA_SIM_TRACE_H_
