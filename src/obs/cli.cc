#include "obs/cli.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

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
    : tool_(std::move(tool)), start_(std::chrono::steady_clock::now()) {}

bool ObsCli::consume(int argc, char** argv, int* i) {
  std::string value;
  if (match_flag("--metrics-json", argc, argv, i, &value)) {
    metrics_path_ = value;
    set_metrics_enabled(true);
    return true;
  }
  if (match_flag("--trace-out", argc, argv, i, &value)) {
    trace_path_ = value;
    set_tracing_enabled(true);
    return true;
  }
  return false;
}

Status ObsCli::finish(RunReport* report) {
  if (!metrics_requested() && !trace_requested()) return Status::ok();
  report->tool = tool_;
  report->wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  report->metrics = Registry::global().snapshot();
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
