// Live run telemetry (docs/observability.md, "Heartbeats"): a sampler that
// appends one strict-JSON line per tick to a JSONL stream while a run is in
// flight, plus the process-wide Progress state the exploration engines
// publish into.
//
// The heartbeat stream is the push counterpart of the pull-style RunReport:
// a RunReport describes a finished run, a heartbeat stream describes a run
// *while it happens* — levels completed, frontier size, rolling nodes/sec,
// an ETA once the frontier is draining, checkpoint writes, and per-worker
// utilization (busy flag, nodes expanded, intern CAS retries).
// `tools/lbsa_watch` tails the stream; `report_check heartbeat` validates
// it (strict JSON per line, contiguous sequence numbers, non-decreasing
// cumulative counters, constant run_id).
//
// Continuity across checkpoint/resume: the run_id is derived from the
// stable run inputs (derive_run_id), so a resumed run appending to the same
// stream produces a verifiable continuation — the sampler picks up the
// sequence numbering after the last line, and the engines seed cumulative
// counters from the checkpoint so nodes_total/transitions_total stay
// monotone across the splice. uptime_ms and checkpoint_writes are
// per-session and intentionally excluded from the monotonicity checks.
#ifndef LBSA_OBS_HEARTBEAT_H_
#define LBSA_OBS_HEARTBEAT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/status.h"

namespace lbsa::obs {

inline constexpr int kHeartbeatSchemaVersion = 1;
inline constexpr int kHeartbeatSummarySchemaVersion = 1;

// Per-worker utilization slots published by the parallel engine. A fixed
// cap keeps the slots allocation-free and index-stable for samplers.
inline constexpr int kProgressMaxWorkers = 64;

// Process-wide heartbeat switch, mirroring metrics_enabled(): engines
// publish live Progress only while some sampler is active, so the fast
// path of an un-observed run is a single relaxed load.
namespace internal_heartbeat {
inline std::atomic<bool>& heartbeat_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}
}  // namespace internal_heartbeat

inline bool heartbeat_enabled() {
  return internal_heartbeat::heartbeat_flag().load(std::memory_order_relaxed);
}
inline void set_heartbeat_enabled(bool enabled) {
  internal_heartbeat::heartbeat_flag().store(enabled,
                                             std::memory_order_relaxed);
}

// Live run-lifecycle state, written by the exploration engines at their
// natural quiescence points (level boundaries, work-chunk boundaries) and
// read by the heartbeat sampler thread. nodes_total and transitions_total
// are CUMULATIVE for the process (a hierarchy sweep's cells accumulate;
// resumed runs are seeded with the checkpoint's totals), so sampled values
// are non-decreasing — the invariant `report_check heartbeat` enforces.
// levels_completed and frontier_size are gauges of the current exploration.
class Progress {
 public:
  static Progress& global();

  struct WorkerSlot {
    std::atomic<std::uint64_t> busy{0};      // 1 while expanding a chunk
    std::atomic<std::uint64_t> expanded{0};  // nodes expanded (this engine)
    std::atomic<std::uint64_t> cas_retries{0};  // intern CAS retries
  };

  std::atomic<std::uint64_t> nodes_total{0};
  std::atomic<std::uint64_t> transitions_total{0};
  std::atomic<std::uint64_t> levels_completed{0};
  std::atomic<std::uint64_t> frontier_size{0};
  std::atomic<std::uint64_t> checkpoint_writes{0};

  // Publishes the pool size for the sampler's workers array and clears the
  // busy flags; cumulative per-slot counters are left alone (they are
  // per-worker gauges, not monotone-checked).
  void configure_workers(int n);
  int worker_count() const {
    return static_cast<int>(worker_count_.load(std::memory_order_acquire));
  }
  // nullptr when i is outside [0, min(worker_count, kProgressMaxWorkers)).
  WorkerSlot* worker(int i);

  // Monotone store: raises `cell` to at least `value` (CAS loop). The
  // parallel engine's workers race absolute republications through this
  // so a stale smaller value can never un-publish a larger one.
  static void raise(std::atomic<std::uint64_t>& cell, std::uint64_t value);

  // Zeroes everything (tests / fresh sessions). Establish quiescence first.
  void reset();

 private:
  std::atomic<std::uint32_t> worker_count_{0};
  WorkerSlot slots_[kProgressMaxWorkers];
};

// Deterministic run identity from the stable run inputs (16 hex chars).
// Engine and thread count are deliberately excluded — the same task
// explored by any engine is the same run — and a resume passes the same
// inputs (enforced by the checkpoint fingerprint for the explorer), so the
// id survives checkpoint/resume.
//
// `nonce` (the CLIs' --run-nonce) disambiguates otherwise-identical runs
// sharing one stream namespace: two concurrent runs of the same (task,
// budget) would collide without it and validate_heartbeat_stream would
// conflate their streams. The caller keeps the nonce stable across
// checkpoint/resume of the same logical run so continuation still works.
// An empty nonce is not hashed, so ids from pre-nonce callers are
// unchanged.
std::string derive_run_id(std::string_view tool, std::string_view task,
                          std::string_view mode, std::uint64_t budget,
                          std::string_view nonce = {});

struct HeartbeatOptions {
  std::string path;  // JSONL stream, opened in append mode
  std::string tool;
  std::string task;
  std::string run_id;                 // derive_run_id(...)
  std::uint64_t interval_ms = 1000;   // background-thread tick interval
  // Injectable monotonic clock (milliseconds); tests pin this to a fake so
  // tick contents are deterministic. Defaults to steady_clock.
  std::function<std::uint64_t()> clock_ms;
};

// Appends one strict-JSON heartbeat line per tick. Two driving modes:
// manual tick() for deterministic tests, or start()/stop() for a real
// background sampling thread. stop() always appends a final line with
// "final":true — the signal lbsa_watch exits on.
//
// open() turns heartbeat_enabled on and stop() turns it off, so at most one
// sampler may be open at a time in a process (ObsCli holds exactly one).
class HeartbeatSampler {
 public:
  explicit HeartbeatSampler(HeartbeatOptions options);
  ~HeartbeatSampler();

  // Opens the stream. If the file already holds heartbeat lines, the last
  // line must carry the same run_id (FAILED_PRECONDITION otherwise) and
  // sequence numbering continues after it — the checkpoint/resume splice.
  Status open();
  // Samples Progress + the metrics Registry and appends one line.
  void tick() { write_tick(false); }
  // open() + a background thread ticking every interval_ms.
  Status start();
  // Joins the thread (if any), appends the final line, closes the stream,
  // and turns heartbeat_enabled off. Idempotent.
  Status stop();

  // Captured timeseries, for the RunReport v2 "timeseries" section.
  struct Tick {
    std::uint64_t uptime_ms = 0;
    std::uint64_t nodes_total = 0;
    std::uint64_t frontier_size = 0;
    double nodes_per_sec = 0.0;
  };
  const std::vector<Tick>& ticks() const { return ticks_; }
  const std::string& run_id() const { return options_.run_id; }
  std::uint64_t interval_ms() const { return options_.interval_ms; }
  bool opened() const { return file_ != nullptr; }

 private:
  void write_tick(bool final);
  void thread_main();

  HeartbeatOptions options_;
  std::FILE* file_ = nullptr;
  std::uint64_t next_seq_ = 0;
  std::uint64_t start_ms_ = 0;
  std::vector<Tick> ticks_;  // manual + timed ticks, excludes the final line
  // Rolling window for nodes/sec and the frontier-trend ETA.
  struct Sample {
    std::uint64_t t_ms = 0;
    std::uint64_t nodes = 0;
    std::uint64_t frontier = 0;
  };
  std::vector<Sample> window_;  // last <= 8 samples
  std::mutex mu_;               // serializes tick()/stop() vs the thread
  std::thread thread_;
  bool running_ = false;
  bool stopped_ = false;
  std::condition_variable cv_;
  bool quit_ = false;
};

// Validates a heartbeat JSONL stream: every line strict JSON with the
// required field set, heartbeat_version == 1, constant run_id/tool/task,
// sequence numbers contiguous (+1 per line; the first line may start
// anywhere — a tail is a valid stream), and cumulative counters
// (nodes_total, transitions_total) non-decreasing. "final":true lines may
// appear mid-stream: a resumed run appends after its predecessor's final
// line.
Status validate_heartbeat_stream(std::string_view text);

// Validates an lbsa_watch --summary-json digest.
Status validate_heartbeat_summary_json(std::string_view json);

// Dispatch for `report_check heartbeat FILE`: a single JSON object with
// heartbeat_summary_version is checked as a digest, anything else as a
// JSONL stream.
Status validate_heartbeat_file(std::string_view text);

}  // namespace lbsa::obs

#endif  // LBSA_OBS_HEARTBEAT_H_
