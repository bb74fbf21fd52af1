// Shared command-line plumbing for observability flags. Every tool that
// supports --metrics-json / --trace-out / --heartbeat-out routes its
// argument loop through an ObsCli:
//
//   obs::ObsCli obs_cli("my_tool");
//   for (int i = 1; i < argc; ++i) {
//     if (obs_cli.consume(argc, argv, &i)) continue;
//     ... tool-specific flags ...
//   }
//   obs_cli.start_heartbeat(task, obs::derive_run_id(...));
//   ... run the workload, filling an obs::RunReport skeleton ...
//   if (Status s = obs_cli.finish(&report); !s.is_ok()) { ... }
//
// consume() recognizes (in `--flag=VALUE` and `--flag VALUE` forms)
// `--metrics-json PATH`, `--trace-out PATH`, `--heartbeat-out PATH`, and
// `--heartbeat-every SECONDS`, and flips the corresponding global sink on,
// so instrumentation in the libraries starts recording. `--heartbeat-out`
// arms only the engines' Progress publishing (heartbeat_enabled()), not the
// metrics registry — the sampler snapshots whatever the registry holds, so
// combine with --metrics-json to get registry rows inside heartbeat lines;
// alone it keeps sampling overhead under the perf gate's 2%. finish() stops the
// heartbeat sampler (appending its "final":true line), stamps wall time and
// the metrics snapshot into the report plus a "timeseries" section built
// from the captured ticks, then writes the RunReport (schema-validated) and
// the Chrome trace JSON to the requested paths. With no obs flag given,
// both calls are no-ops and the sinks stay off — the near-zero-cost
// default.
//
// The LBSA_OBS_DISABLED environment variable (set and not "0") is a runtime
// kill switch: obs flags are still accepted (with a one-time stderr note)
// but no sink turns on and no artifact is written — the overhead-comparison
// lever used by perf_smoke.sh and the bench's obs-overhead rows.
#ifndef LBSA_OBS_CLI_H_
#define LBSA_OBS_CLI_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "base/status.h"
#include "obs/heartbeat.h"
#include "obs/report.h"

namespace lbsa::obs {

// Strict numeric flag values, shared by the CLIs. The whole token must be a
// decimal integer in [min, max], with no sign, space or suffix; anything
// else prints an error naming `flag` and exits 2, so `--runs 10k` or
// `--threads four` never runs on a silently truncated value.
std::uint64_t parse_count_flag(const char* flag, std::string_view text,
                               std::uint64_t min, std::uint64_t max);

// A positive number of seconds (--deadline-s, --heartbeat-every,
// --timeout-s), at most 1e9 so a deadline stays inside the steady clock's
// nanosecond range; anything else prints an error naming `flag` and exits 2.
double parse_seconds_flag(const char* flag, const char* text);

class ObsCli {
 public:
  explicit ObsCli(std::string tool);
  ~ObsCli();

  // Returns true if argv[*i] was an observability flag (and advances *i past
  // a separate value argument if one was consumed). Exits with a usage error
  // on a flag missing its value.
  bool consume(int argc, char** argv, int* i);

  bool metrics_requested() const { return !metrics_path_.empty(); }
  bool trace_requested() const { return !trace_path_.empty(); }
  bool heartbeat_requested() const { return !heartbeat_path_.empty(); }
  const std::string& metrics_path() const { return metrics_path_; }
  const std::string& trace_path() const { return trace_path_; }
  const std::string& heartbeat_path() const { return heartbeat_path_; }
  std::uint64_t heartbeat_interval_ms() const {
    return heartbeat_interval_ms_;
  }

  // Opens the heartbeat stream and starts the background sampler. No-op
  // (ok) unless --heartbeat-out was given. The run_id should come from
  // derive_run_id over the tool's stable inputs so a resumed run appends to
  // the same stream as a verifiable continuation.
  Status start_heartbeat(const std::string& task, const std::string& run_id);

  // Completes `report` (tool name, wall_seconds, metrics snapshot, and a
  // "timeseries" section when a heartbeat sampler ran; the caller has
  // already filled task/params/sections) and writes the requested
  // artifacts. Safe to call on every exit path — including interrupt/
  // deadline exits — and artifacts are written atomically. No-op when no
  // obs flag was given.
  Status finish(RunReport* report);

 private:
  std::string tool_;
  std::string metrics_path_;
  std::string trace_path_;
  std::string heartbeat_path_;
  std::uint64_t heartbeat_interval_ms_ = 1000;
  bool disabled_ = false;        // LBSA_OBS_DISABLED kill switch
  bool disabled_warned_ = false;
  std::unique_ptr<HeartbeatSampler> heartbeat_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace lbsa::obs

#endif  // LBSA_OBS_CLI_H_
