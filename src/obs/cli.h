// Shared command-line plumbing for observability flags. Every tool that
// supports --metrics-json / --trace-out routes its argument loop through an
// ObsCli:
//
//   obs::ObsCli obs_cli("my_tool");
//   for (int i = 1; i < argc; ++i) {
//     if (obs_cli.consume(argc, argv, &i)) continue;
//     ... tool-specific flags ...
//   }
//   ... run the workload, filling an obs::RunReport skeleton ...
//   if (Status s = obs_cli.finish(&report); !s.is_ok()) { ... }
//
// consume() recognizes `--metrics-json PATH` and `--trace-out PATH` (in
// `--flag=VALUE` and `--flag VALUE` forms) and flips the corresponding
// global sink on, so instrumentation in the libraries starts recording.
// finish() stamps wall time and the metrics snapshot into the report, then
// writes the RunReport (schema-validated) and the Chrome trace JSON to the
// requested paths. With no obs flag given, finish() is a no-op and the
// sinks stay off — the near-zero-cost default.
#ifndef LBSA_OBS_CLI_H_
#define LBSA_OBS_CLI_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "base/status.h"
#include "obs/report.h"

namespace lbsa::obs {

// Strict numeric flag values, shared by the CLIs. The whole token must be a
// decimal integer in [min, max], with no sign, space or suffix; anything
// else prints an error naming `flag` and exits 2, so `--runs 10k` or
// `--threads four` never runs on a silently truncated value.
std::uint64_t parse_count_flag(const char* flag, std::string_view text,
                               std::uint64_t min, std::uint64_t max);

// A positive number of seconds (--deadline-s), at most 1e9 so a deadline
// stays inside the steady clock's nanosecond range; anything else prints an
// error naming `flag` and exits 2.
double parse_seconds_flag(const char* flag, const char* text);

class ObsCli {
 public:
  explicit ObsCli(std::string tool);

  // Returns true if argv[*i] was an observability flag (and advances *i past
  // a separate value argument if one was consumed). Exits with a usage error
  // on a flag missing its value.
  bool consume(int argc, char** argv, int* i);

  bool metrics_requested() const { return !metrics_path_.empty(); }
  bool trace_requested() const { return !trace_path_.empty(); }
  const std::string& metrics_path() const { return metrics_path_; }
  const std::string& trace_path() const { return trace_path_; }

  // Completes `report` (tool name, wall_seconds and metrics snapshot; the
  // caller has already filled task/params/sections) and writes the
  // requested artifacts. Safe to call on every exit path — including
  // interrupt/deadline exits — and artifacts are written atomically.
  // No-op when no obs flag was given.
  Status finish(RunReport* report);

 private:
  std::string tool_;
  std::string metrics_path_;
  std::string trace_path_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace lbsa::obs

#endif  // LBSA_OBS_CLI_H_
