// The named-task workloads shared by explorer_cli and fuzz_shrink_cli. Each
// takes an options struct (no globals, no flag parsing, no process-wide
// state beyond the obs sinks the caller arms) and returns the CLI exit
// code, the human summary exactly as the CLIs print it, and the filled
// RunReport skeleton (task/params/sections).
//
// The split of responsibilities:
//   - run_*_task: run the workload, format the deterministic outputs.
//   - the CLI: flag parsing, wall-clock timing, SIGINT wiring, heartbeat
//     lifecycle, checkpoint file reading, obs finalization
//     (ObsCli::finish), corpus file emission.
//
// Everything in TaskRunResult except `error` strings is deterministic for
// fixed options (explore graphs are engine/thread independent; coverage
// fuzz is seed-deterministic).
#ifndef LBSA_MODELCHECK_RUN_TASK_H_
#define LBSA_MODELCHECK_RUN_TASK_H_

#include <string>

#include "modelcheck/corpus.h"
#include "modelcheck/explorer.h"
#include "modelcheck/fuzz.h"
#include "obs/report.h"

namespace lbsa::modelcheck {

// Shared CLI exit-code convention (documented in each tool's header):
//   0  complete, expected outcome
//   1  error or unexpected outcome
//   2  usage / invalid request
//   3  complete but truncated or partial (absence verdicts unsound)
//   4  interrupted at a resumable boundary
struct TaskRunResult {
  int exit_code = 0;
  // Human-readable summary lines (newline-terminated), byte-identical to
  // what the CLI prints to stdout — minus CLI-owned lines such as the
  // wall-clock "elapsed" line.
  std::string human;
  // Non-empty when exit_code != 0 explains why (stderr wording).
  std::string error;
  // task/params/sections filled iff the workload ran; tool, wall_seconds,
  // and the metrics snapshot are left for the caller to fill.
  obs::RunReport report;
  bool report_valid = false;
  // Headline work volume (explore: graph nodes; fuzz: runs executed) for
  // the CLI's rate line — wall-clock never enters the result.
  std::uint64_t work_items = 0;
};

struct ExploreTaskSpec {
  // Lifecycle knobs (cancel/deadline/checkpoint/resume) included; when
  // resuming, `options.resume` must point at a checkpoint that outlives the
  // call (the caller read and error-reported it).
  ExploreOptions options;
  // Echoed into the report's "resumed_from" param when non-empty.
  std::string resumed_from;
};

TaskRunResult run_explore_task(const NamedTask& task,
                               const ExploreTaskSpec& spec);

// Blind-engine checkpoint/resume/stop_after_runs combinations are rejected
// (validate_fuzz_options) as exit 2 instead of crashing; fuzz_shrink_cli
// pre-validates with its own flag wording.
struct FuzzTaskSpec {
  FuzzOptions options;
  std::string resumed_from;
};

// The FuzzReport rides along so the CLI can emit corpus files from the
// violations after the obs artifacts are finalized.
struct FuzzTaskRunResult : TaskRunResult {
  FuzzReport fuzz;
};

FuzzTaskRunResult run_fuzz_task(const NamedTask& task,
                                const FuzzTaskSpec& spec);

}  // namespace lbsa::modelcheck

#endif  // LBSA_MODELCHECK_RUN_TASK_H_
