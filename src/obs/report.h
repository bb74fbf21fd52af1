// Machine-readable run reports: every CLI that accepts --metrics-json
// writes one of these. The format is versioned and schema-checked (see
// validate_run_report_json and docs/observability.md):
//
//   {
//     "run_report_version": 3,
//     "tool": "explorer_cli",
//     "task": "dac3",                      // "" when not task-scoped
//     "params": { "threads": 8, ... },     // tool inputs, for reproduction
//     "wall_seconds": 0.042,
//     "metrics": {
//       "counters": { "explore.nodes": 441, ... },        // stable
//       "gauges":   { "explore.max_depth": 9, ... },
//       "volatile": { "counters": {...}, "gauges": {...} }  // schedule-dep.
//     },
//     "sections": {
//       "explorer": { "nodes": 441, ... }                  // tool-specific
//     }
//   }
//
// v3 dropped v2's "histograms" group: counters and gauges are the only
// metric kinds.
//
// "params" and "sections" values are raw JSON supplied by the tool (built
// with obs::JsonWriter). The stable metrics sections are byte-identical
// across thread counts for deterministic workloads; "volatile" and
// "wall_seconds" are not — comparisons must use
// MetricsSnapshot::stable_json() / the stable sections only.
#ifndef LBSA_OBS_REPORT_H_
#define LBSA_OBS_REPORT_H_

#include <string>
#include <utility>
#include <vector>

#include "base/status.h"
#include "obs/metrics.h"

namespace lbsa::obs {

struct RunReport {
  static constexpr int kSchemaVersion = 3;

  std::string tool;  // required, non-empty
  std::string task;  // optional workload key ("" if none)
  // name -> raw JSON value (numbers, strings with quotes, objects ...).
  std::vector<std::pair<std::string, std::string>> params;
  std::vector<std::pair<std::string, std::string>> sections;
  double wall_seconds = 0.0;
  MetricsSnapshot metrics;

  std::string to_json() const;
};

// Schema check for a serialized RunReport; INVALID_ARGUMENT pinpoints the
// first violation. Used by the schema tests and by the CLIs right after
// writing (a CLI never leaves an invalid artifact behind).
Status validate_run_report_json(std::string_view json);

// Schema check for the BENCH_modelcheck.json artifact emitted by
// tools/run_report.sh: {"lbsa_bench_schema":1,"benchmarks":[...],
// "run_reports":{name: <RunReport>, ...}}.
Status validate_bench_artifact_json(std::string_view json);

// Schema check for the HIERARCHY.json artifact emitted by
// tools/hierarchy_sweep_cli (core/hierarchy_sweep.h):
// {"lbsa_hierarchy_schema":1,"n_min":..,"n_max":..,"rows":[...],
// "provenance":{...}}. Strict: rows must cover exactly every (n, m) with
// n_min <= n <= n_max, 1 <= m <= n, in lexicographic order; every row must
// report ok verdicts on both constructive checks, declared_level == m, and
// matches_catalog == true — an artifact recording a refuted theorem does
// not validate.
Status validate_hierarchy_artifact_json(std::string_view json);

// Writes `text` to `path` atomically: the bytes land in a same-directory
// temp file, named uniquely per call, which is then renamed over `path`, so
// readers (and the file itself, if the process dies mid-write — the
// interrupted-run exit paths) never observe a torn artifact, and concurrent
// writers of one path each leave a complete file. INTERNAL on I/O failure.
// Checkpoint files are written through it too.
Status write_text_file(const std::string& path, std::string_view text);

// Serializes, schema-checks, and writes the report.
Status write_run_report(const RunReport& report, const std::string& path);

}  // namespace lbsa::obs

#endif  // LBSA_OBS_REPORT_H_
