// report_check — schema validator for the observability artifacts this
// repository's tools emit (docs/observability.md):
//
//   ./report_check run-report FILE...   # --metrics-json RunReport JSON
//   ./report_check bench FILE...        # tools/run_report.sh BENCH artifact
//   ./report_check hierarchy FILE...    # tools/hierarchy_report.sh HIERARCHY
//   ./report_check trace FILE...        # --trace-out chrome://tracing JSON
//
// Exits 0 iff every file validates; prints one line per file. Used by
// tools/run_report.sh to gate its merged artifact and handy for checking
// artifacts by hand.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.h"
#include "obs/report.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: report_check run-report FILE...\n"
               "       report_check bench FILE...\n"
               "       report_check hierarchy FILE...\n"
               "       report_check trace FILE...\n");
  return 2;
}

// Minimal structural check of a Chrome trace-event file: a top-level object
// with a traceEvents array whose entries are objects carrying name/ph/pid.
lbsa::Status validate_trace_json(std::string_view json) {
  using lbsa::obs::JsonValue;
  auto parsed = lbsa::obs::parse_json(json);
  if (!parsed.is_ok()) return parsed.status();
  const JsonValue& root = parsed.value();
  if (!root.is_object()) {
    return lbsa::invalid_argument("trace: document not an object");
  }
  const JsonValue* events = root.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return lbsa::invalid_argument("trace: traceEvents missing or not an array");
  }
  for (const JsonValue& event : events->array) {
    if (!event.is_object()) {
      return lbsa::invalid_argument("trace: event not an object");
    }
    for (const char* key : {"name", "ph"}) {
      const JsonValue* field = event.find(key);
      if (field == nullptr || !field->is_string()) {
        return lbsa::invalid_argument(std::string("trace: event missing ") +
                                      key);
      }
    }
    if (const JsonValue* pid = event.find("pid");
        pid == nullptr || !pid->is_number()) {
      return lbsa::invalid_argument("trace: event missing pid");
    }
  }
  return lbsa::Status::ok();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lbsa;
  if (argc < 3) return usage();
  const char* mode = argv[1];
  if (std::strcmp(mode, "run-report") != 0 && std::strcmp(mode, "bench") != 0 &&
      std::strcmp(mode, "hierarchy") != 0 && std::strcmp(mode, "trace") != 0) {
    return usage();
  }

  bool all_ok = true;
  for (int i = 2; i < argc; ++i) {
    std::ifstream in(argv[i], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "%s: cannot open\n", argv[i]);
      all_ok = false;
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();

    Status s;
    if (!std::strcmp(mode, "run-report")) {
      s = obs::validate_run_report_json(text);
    } else if (!std::strcmp(mode, "bench")) {
      s = obs::validate_bench_artifact_json(text);
    } else if (!std::strcmp(mode, "hierarchy")) {
      s = obs::validate_hierarchy_artifact_json(text);
    } else {
      s = validate_trace_json(text);
    }
    if (s.is_ok()) {
      std::printf("%s: OK\n", argv[i]);
    } else {
      std::fprintf(stderr, "%s: %s\n", argv[i], s.to_string().c_str());
      all_ok = false;
    }
  }
  return all_ok ? 0 : 1;
}
