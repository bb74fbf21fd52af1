// lbsa_watch — tail a --heartbeat-out JSONL stream from a concurrently
// running explorer_cli / fuzz_shrink_cli / hierarchy_sweep_cli and render a
// live status line per heartbeat, plus an optional machine-readable digest.
//
//   ./lbsa_watch FILE [--summary-json PATH] [--timeout-s S] [--quiet]
//
// The watcher polls FILE (which may not exist yet — the producer creates
// it), consumes complete lines as they are appended, validates each against
// the heartbeat schema, and prints a refreshing status table:
//
//   seq    uptime      nodes     nodes/s   frontier  lvl   eta  workers
//
// It exits 0 when a line with "final":true arrives (the producer's stop()
// signal), or 1 if --timeout-s elapses first / the stream is invalid.
// --summary-json writes a final digest (validated by
// `report_check heartbeat`, schema in docs/observability.md) summarizing
// the whole observed stream; --quiet suppresses the per-tick lines (CI
// mode: just follow, digest, exit).
//
// Exit codes:
//   0  final heartbeat observed
//   1  timeout, I/O failure, or invalid stream
//   2  usage error
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "obs/cli.h"
#include "obs/heartbeat.h"
#include "obs/json.h"
#include "obs/report.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: lbsa_watch FILE [--summary-json PATH] [--timeout-s S] "
               "[--quiet]\n");
  return 2;
}

// Rolling digest of every heartbeat line seen.
struct WatchState {
  bool any = false;
  std::string run_id;
  std::string tool;
  std::string task;
  std::uint64_t ticks = 0;
  std::int64_t first_seq = 0;
  std::int64_t last_seq = 0;
  std::uint64_t nodes_total = 0;
  std::uint64_t transitions_total = 0;
  std::uint64_t levels_completed = 0;
  double max_nodes_per_sec = 0.0;
  bool final_seen = false;
};

std::string format_uptime(std::uint64_t ms) {
  char buf[32];
  const std::uint64_t s = ms / 1000;
  if (s >= 3600) {
    std::snprintf(buf, sizeof buf, "%lluh%02llum",
                  static_cast<unsigned long long>(s / 3600),
                  static_cast<unsigned long long>((s % 3600) / 60));
  } else if (s >= 60) {
    std::snprintf(buf, sizeof buf, "%llum%02llus",
                  static_cast<unsigned long long>(s / 60),
                  static_cast<unsigned long long>(s % 60));
  } else {
    std::snprintf(buf, sizeof buf, "%llu.%llus",
                  static_cast<unsigned long long>(s),
                  static_cast<unsigned long long>((ms % 1000) / 100));
  }
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lbsa;
  if (argc < 2) return usage();
  const char* path = argv[1];
  if (path[0] == '-') return usage();
  std::string summary_path;
  double timeout_s = 0.0;  // 0 = wait forever
  bool quiet = false;
  for (int i = 2; i < argc; ++i) {
    auto next_arg = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs an argument\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--summary-json")) {
      summary_path = next_arg("--summary-json");
    } else if (!std::strcmp(argv[i], "--timeout-s")) {
      timeout_s =
          obs::parse_seconds_flag("--timeout-s", next_arg("--timeout-s"));
    } else if (!std::strcmp(argv[i], "--quiet")) {
      quiet = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return usage();
    }
  }

  const auto start = std::chrono::steady_clock::now();
  auto timed_out = [&] {
    if (timeout_s <= 0.0) return false;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
               .count() > timeout_s;
  };

  WatchState state;
  std::string carry;        // incomplete trailing line between reads
  std::size_t offset = 0;   // bytes of FILE consumed so far
  bool header_printed = false;

  while (true) {
    // Tail-follow: re-open and seek past what we've consumed. Reopening per
    // poll (4 Hz) is cheap and handles the producer creating the file late.
    std::ifstream in(path, std::ios::binary);
    if (in) {
      in.seekg(static_cast<std::streamoff>(offset));
      std::string chunk((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
      offset += chunk.size();
      carry += chunk;
      std::size_t nl;
      while ((nl = carry.find('\n')) != std::string::npos) {
        const std::string line = carry.substr(0, nl);
        carry.erase(0, nl + 1);
        if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
        auto parsed = obs::parse_json(line);
        if (!parsed.is_ok() || !parsed.value().is_object()) {
          std::fprintf(stderr, "lbsa_watch: %s: bad heartbeat line: %s\n",
                       path,
                       parsed.is_ok() ? "not an object"
                                      : parsed.status().message().c_str());
          return 1;
        }
        const obs::JsonValue& hb = parsed.value();
        // Validate the single line by running the stream validator over it;
        // cross-line invariants (seq, monotonicity) are checked against the
        // running state below.
        if (const Status s = obs::validate_heartbeat_stream(line);
            !s.is_ok()) {
          std::fprintf(stderr, "lbsa_watch: %s: %s\n", path,
                       s.to_string().c_str());
          return 1;
        }
        const std::string run_id = hb.find("run_id")->string_value;
        const std::int64_t seq = hb.find("seq")->int_value;
        const std::uint64_t nodes =
            static_cast<std::uint64_t>(hb.find("nodes_total")->int_value);
        const std::uint64_t transitions = static_cast<std::uint64_t>(
            hb.find("transitions_total")->int_value);
        if (!state.any) {
          state.any = true;
          state.run_id = run_id;
          state.tool = hb.find("tool")->string_value;
          state.task = hb.find("task")->string_value;
          state.first_seq = seq;
        } else {
          if (run_id != state.run_id) {
            std::fprintf(stderr, "lbsa_watch: %s: run_id changed mid-stream\n",
                         path);
            return 1;
          }
          if (seq != state.last_seq + 1) {
            std::fprintf(stderr,
                         "lbsa_watch: %s: seq %lld out of order (expected "
                         "%lld)\n",
                         path, static_cast<long long>(seq),
                         static_cast<long long>(state.last_seq + 1));
            return 1;
          }
          if (nodes < state.nodes_total ||
              transitions < state.transitions_total) {
            std::fprintf(stderr,
                         "lbsa_watch: %s: cumulative counter decreased\n",
                         path);
            return 1;
          }
        }
        state.last_seq = seq;
        state.nodes_total = nodes;
        state.transitions_total = transitions;
        state.levels_completed =
            static_cast<std::uint64_t>(hb.find("levels_completed")->int_value);
        const double rate = hb.find("nodes_per_sec")->number_value;
        if (rate > state.max_nodes_per_sec) state.max_nodes_per_sec = rate;
        ++state.ticks;
        const bool final_line =
            hb.find("final")->kind == obs::JsonValue::Kind::kBool &&
            hb.find("final")->bool_value;
        if (final_line) state.final_seen = true;

        if (!quiet) {
          if (!header_printed) {
            header_printed = true;
            std::printf("watching %s: %s/%s run %s\n", path,
                        state.tool.c_str(), state.task.c_str(),
                        state.run_id.c_str());
            std::printf("%6s %9s %12s %12s %10s %6s %8s %6s\n", "seq",
                        "uptime", "nodes", "nodes/s", "frontier", "levels",
                        "eta", "busy");
          }
          const obs::JsonValue* eta = hb.find("eta_s");
          char eta_buf[32];
          if (eta->is_number()) {
            std::snprintf(eta_buf, sizeof eta_buf, "%.0fs",
                          eta->number_value);
          } else {
            std::snprintf(eta_buf, sizeof eta_buf, "-");
          }
          std::size_t busy = 0;
          const obs::JsonValue* workers = hb.find("workers");
          for (const obs::JsonValue& slot : workers->array) {
            if (slot.find("busy")->int_value != 0) ++busy;
          }
          std::printf("%6lld %9s %12llu %12.0f %10llu %6llu %8s %3zu/%-2zu%s\n",
                      static_cast<long long>(seq),
                      format_uptime(static_cast<std::uint64_t>(
                                        hb.find("uptime_ms")->int_value))
                          .c_str(),
                      static_cast<unsigned long long>(nodes),
                      hb.find("nodes_per_sec")->number_value,
                      static_cast<unsigned long long>(
                          hb.find("frontier_size")->int_value),
                      static_cast<unsigned long long>(state.levels_completed),
                      eta_buf, busy, workers->array.size(),
                      final_line ? "  [final]" : "");
          std::fflush(stdout);
        }
      }
    }
    if (state.final_seen) break;
    if (timed_out()) {
      std::fprintf(stderr,
                   "lbsa_watch: %s: timed out after %.1fs (%llu heartbeats, "
                   "no final line)\n",
                   path, timeout_s,
                   static_cast<unsigned long long>(state.ticks));
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
  }

  if (!summary_path.empty()) {
    obs::JsonWriter w;
    w.begin_object();
    w.key("heartbeat_summary_version");
    w.value_int(obs::kHeartbeatSummarySchemaVersion);
    w.key("run_id");
    w.value_string(state.run_id);
    w.key("tool");
    w.value_string(state.tool);
    w.key("task");
    w.value_string(state.task);
    w.key("ticks");
    w.value_uint(state.ticks);
    w.key("first_seq");
    w.value_int(state.first_seq);
    w.key("last_seq");
    w.value_int(state.last_seq);
    w.key("nodes_total");
    w.value_uint(state.nodes_total);
    w.key("transitions_total");
    w.value_uint(state.transitions_total);
    w.key("levels_completed");
    w.value_uint(state.levels_completed);
    w.key("max_nodes_per_sec");
    w.value_double(state.max_nodes_per_sec);
    w.key("final_seen");
    w.value_bool(state.final_seen);
    w.end_object();
    std::string json = std::move(w).str();
    // Self-check before writing: this binary never leaves a digest behind
    // that `report_check heartbeat` would reject.
    if (const Status s = obs::validate_heartbeat_summary_json(json);
        !s.is_ok()) {
      std::fprintf(stderr, "internal: emitted digest fails schema: %s\n",
                   s.to_string().c_str());
      return 1;
    }
    json += '\n';
    if (const Status s = obs::write_text_file(summary_path, json);
        !s.is_ok()) {
      std::fprintf(stderr, "%s\n", s.to_string().c_str());
      return 1;
    }
  }
  return 0;
}
