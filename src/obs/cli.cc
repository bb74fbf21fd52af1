#include "obs/cli.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lbsa::obs {

namespace {

// Matches `--flag=VALUE` or `--flag VALUE`; fills *value and returns true.
bool match_flag(const char* flag, int argc, char** argv, int* i,
                std::string* value) {
  const char* arg = argv[*i];
  const std::size_t flag_len = std::strlen(flag);
  if (std::strncmp(arg, flag, flag_len) != 0) return false;
  if (arg[flag_len] == '=') {
    *value = arg + flag_len + 1;
    return true;
  }
  if (arg[flag_len] != '\0') return false;
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "error: %s requires a value argument\n", flag);
    std::exit(2);
  }
  *value = argv[++*i];
  return true;
}

bool obs_disabled_by_env() {
  const char* value = std::getenv("LBSA_OBS_DISABLED");
  return value != nullptr && value[0] != '\0' &&
         !(value[0] == '0' && value[1] == '\0');
}

}  // namespace

std::uint64_t parse_count_flag(const char* flag, std::string_view text,
                               std::uint64_t min, std::uint64_t max) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc() && ptr == end && value >= min && value <= max) {
    return value;
  }
  std::fprintf(stderr,
               "error: %s requires a whole number in [%llu, %llu], got "
               "'%.*s'\n",
               flag, static_cast<unsigned long long>(min),
               static_cast<unsigned long long>(max),
               static_cast<int>(text.size()), text.data());
  std::exit(2);
}

double parse_seconds_flag(const char* flag, const char* text) {
  char* end = nullptr;
  const double seconds = std::strtod(text, &end);
  if (end == text || *end != '\0' ||
      std::isspace(static_cast<unsigned char>(text[0])) ||
      !std::isfinite(seconds) || !(seconds > 0.0) || seconds > 1e9) {
    std::fprintf(stderr,
                 "error: %s requires a positive number of seconds, got "
                 "'%s'\n",
                 flag, text);
    std::exit(2);
  }
  return seconds;
}

ObsCli::ObsCli(std::string tool)
    : tool_(std::move(tool)),
      disabled_(obs_disabled_by_env()),
      start_(std::chrono::steady_clock::now()) {}

ObsCli::~ObsCli() = default;

bool ObsCli::consume(int argc, char** argv, int* i) {
  std::string value;
  bool matched = false;
  if (match_flag("--metrics-json", argc, argv, i, &value)) {
    metrics_path_ = value;
    matched = true;
  } else if (match_flag("--trace-out", argc, argv, i, &value)) {
    trace_path_ = value;
    matched = true;
  } else if (match_flag("--heartbeat-out", argc, argv, i, &value)) {
    heartbeat_path_ = value;
    matched = true;
  } else if (match_flag("--heartbeat-every", argc, argv, i, &value)) {
    const double seconds =
        parse_seconds_flag("--heartbeat-every", value.c_str());
    heartbeat_interval_ms_ = static_cast<std::uint64_t>(seconds * 1000.0);
    if (heartbeat_interval_ms_ == 0) heartbeat_interval_ms_ = 1;
    return true;
  }
  if (!matched) return false;
  if (disabled_) {
    if (!disabled_warned_) {
      std::fprintf(stderr,
                   "%s: LBSA_OBS_DISABLED is set; observability flags are "
                   "accepted but no artifacts will be written\n",
                   tool_.c_str());
      disabled_warned_ = true;
    }
    metrics_path_.clear();
    trace_path_.clear();
    heartbeat_path_.clear();
    return true;
  }
  // --heartbeat-out deliberately does NOT flip the metrics switch: the
  // sampler snapshots whatever the registry holds, and forcing per-node
  // counter accounting on would make heartbeats cost what --metrics-json
  // costs instead of the <2% the perf gate holds them to. Pass both flags
  // to get registry rows inside the heartbeat lines.
  if (!metrics_path_.empty()) set_metrics_enabled(true);
  if (!trace_path_.empty()) set_tracing_enabled(true);
  return true;
}

Status ObsCli::start_heartbeat(const std::string& task,
                               const std::string& run_id) {
  if (!heartbeat_requested()) return Status::ok();
  HeartbeatOptions options;
  options.path = heartbeat_path_;
  options.tool = tool_;
  options.task = task;
  options.run_id = run_id;
  options.interval_ms = heartbeat_interval_ms_;
  heartbeat_ = std::make_unique<HeartbeatSampler>(std::move(options));
  return heartbeat_->start();
}

Status ObsCli::finish(RunReport* report) {
  if (heartbeat_ != nullptr) {
    if (Status s = heartbeat_->stop(); !s.is_ok()) return s;
  }
  if (!metrics_requested() && !trace_requested()) return Status::ok();
  report->tool = tool_;
  report->wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  report->metrics = Registry::global().snapshot();
  if (heartbeat_ != nullptr) {
    const auto& ticks = heartbeat_->ticks();
    JsonWriter w;
    w.begin_object();
    w.key("run_id");
    w.value_string(heartbeat_->run_id());
    w.key("interval_ms");
    w.value_uint(heartbeat_->interval_ms());
    w.key("ticks");
    w.value_uint(ticks.size());
    w.key("uptime_ms");
    w.begin_array();
    for (const auto& t : ticks) w.value_uint(t.uptime_ms);
    w.end_array();
    w.key("nodes_total");
    w.begin_array();
    for (const auto& t : ticks) w.value_uint(t.nodes_total);
    w.end_array();
    w.key("frontier_size");
    w.begin_array();
    for (const auto& t : ticks) w.value_uint(t.frontier_size);
    w.end_array();
    w.key("nodes_per_sec");
    w.begin_array();
    for (const auto& t : ticks) w.value_double(t.nodes_per_sec);
    w.end_array();
    w.end_object();
    report->sections.emplace_back("timeseries", std::move(w).str());
  }
  if (metrics_requested()) {
    Status s = write_run_report(*report, metrics_path_);
    if (!s.is_ok()) return s;
  }
  if (trace_requested()) {
    std::string json = Tracer::global().to_chrome_json();
    json += '\n';
    Status s = write_text_file(trace_path_, json);
    if (!s.is_ok()) return s;
  }
  return Status::ok();
}

}  // namespace lbsa::obs
