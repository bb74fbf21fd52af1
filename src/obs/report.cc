#include "obs/report.h"

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>

#include "obs/json.h"

namespace lbsa::obs {

std::string RunReport::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("run_report_version");
  w.value_int(kSchemaVersion);
  w.key("tool");
  w.value_string(tool);
  w.key("task");
  w.value_string(task);
  w.key("params");
  w.begin_object();
  for (const auto& [name, raw] : params) {
    w.key(name);
    w.value_raw(raw);
  }
  w.end_object();
  w.key("wall_seconds");
  w.value_double(wall_seconds);
  w.key("metrics");
  w.value_raw(metrics.to_json());
  w.key("sections");
  w.begin_object();
  for (const auto& [name, raw] : sections) {
    w.key(name);
    w.value_raw(raw);
  }
  w.end_object();
  w.end_object();
  return std::move(w).str();
}

namespace {

Status schema_error(const std::string& what) {
  return invalid_argument("run report schema: " + what);
}

// "counters" and "gauges" must each map names to integers.
Status check_metric_group(const JsonValue& group, const std::string& where) {
  for (const char* kind : {"counters", "gauges"}) {
    const std::string path = where + "." + kind;
    const JsonValue* rows = group.find(kind);
    if (rows == nullptr || !rows->is_object()) {
      return schema_error(path + " missing or not an object");
    }
    for (const auto& [name, value] : rows->members) {
      if (!value.is_number() || !value.number_is_integer) {
        return schema_error(path + "." + name + " not an integer");
      }
    }
  }
  return Status::ok();
}

Status check_run_report_value(const JsonValue& root) {
  if (!root.is_object()) return schema_error("document not an object");
  const JsonValue* version = root.find("run_report_version");
  if (version == nullptr || !version->is_number() ||
      !version->number_is_integer) {
    return schema_error("run_report_version missing or not an integer");
  }
  if (version->int_value != RunReport::kSchemaVersion) {
    return schema_error("unsupported run_report_version " +
                        std::to_string(version->int_value));
  }
  const JsonValue* tool = root.find("tool");
  if (tool == nullptr || !tool->is_string() || tool->string_value.empty()) {
    return schema_error("tool missing or empty");
  }
  const JsonValue* task = root.find("task");
  if (task == nullptr || !task->is_string()) {
    return schema_error("task missing or not a string");
  }
  const JsonValue* params = root.find("params");
  if (params == nullptr || !params->is_object()) {
    return schema_error("params missing or not an object");
  }
  const JsonValue* wall = root.find("wall_seconds");
  if (wall == nullptr || !wall->is_number()) {
    return schema_error("wall_seconds missing or not a number");
  }
  const JsonValue* metrics = root.find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    return schema_error("metrics missing or not an object");
  }
  Status s = check_metric_group(*metrics, "metrics");
  if (!s.is_ok()) return s;
  const JsonValue* volatiles = metrics->find("volatile");
  if (volatiles == nullptr || !volatiles->is_object()) {
    return schema_error("metrics.volatile missing or not an object");
  }
  s = check_metric_group(*volatiles, "metrics.volatile");
  if (!s.is_ok()) return s;
  const JsonValue* sections = root.find("sections");
  if (sections == nullptr || !sections->is_object()) {
    return schema_error("sections missing or not an object");
  }
  // The explorer section's full-graph estimate (and the reduction ratio
  // derived from it) only counts visited orbits, so on a truncated or
  // interrupted graph it silently understates the state space. Writers omit
  // both fields on incomplete graphs; a report carrying them anyway is a
  // producer bug, not a presentation choice — reject it.
  if (const JsonValue* explorer = sections->find("explorer");
      explorer != nullptr && explorer->is_object()) {
    bool incomplete = false;
    for (const char* flag : {"truncated", "interrupted"}) {
      if (const JsonValue* v = explorer->find(flag);
          v != nullptr && v->kind == JsonValue::Kind::kBool && v->bool_value) {
        incomplete = true;
      }
    }
    if (incomplete) {
      for (const char* field : {"nodes_full_estimate", "reduction_ratio"}) {
        if (explorer->find(field) != nullptr) {
          return schema_error(
              std::string("sections.explorer.") + field +
              " present on an incomplete (truncated/interrupted) graph");
        }
      }
    }
  }
  return Status::ok();
}

}  // namespace

Status validate_run_report_json(std::string_view json) {
  StatusOr<JsonValue> parsed = parse_json(json);
  if (!parsed.is_ok()) return parsed.status();
  return check_run_report_value(parsed.value());
}

Status validate_bench_artifact_json(std::string_view json) {
  StatusOr<JsonValue> parsed = parse_json(json);
  if (!parsed.is_ok()) return parsed.status();
  const JsonValue& root = parsed.value();
  if (!root.is_object()) {
    return invalid_argument("bench schema: document not an object");
  }
  // Only tools/run_report.sh writes this artifact, and it writes exactly
  // these three sections; anything else is stale or hand-edited.
  for (const auto& [key, value] : root.members) {
    if (key != "lbsa_bench_schema" && key != "benchmarks" &&
        key != "run_reports") {
      return invalid_argument("bench schema: unknown top-level key " + key);
    }
  }
  const JsonValue* version = root.find("lbsa_bench_schema");
  if (version == nullptr || !version->is_number() ||
      !version->number_is_integer || version->int_value != 1) {
    return invalid_argument("bench schema: lbsa_bench_schema != 1");
  }
  const JsonValue* benchmarks = root.find("benchmarks");
  if (benchmarks == nullptr || !benchmarks->is_array()) {
    return invalid_argument("bench schema: benchmarks missing or not an array");
  }
  for (const JsonValue& row : benchmarks->array) {
    if (!row.is_object()) {
      return invalid_argument("bench schema: benchmarks element not an object");
    }
    const JsonValue* task = row.find("task");
    if (task == nullptr || !task->is_string() || task->string_value.empty()) {
      return invalid_argument("bench schema: benchmark task missing or empty");
    }
    // Reduction-sweep rows: "reduction" (when present) must be a known mode
    // and the associated measurements must be numbers.
    if (const JsonValue* reduction = row.find("reduction");
        reduction != nullptr) {
      if (!reduction->is_string() ||
          (reduction->string_value != "none" &&
           reduction->string_value != "symmetry" &&
           reduction->string_value != "por" &&
           reduction->string_value != "both")) {
        return invalid_argument(
            "bench schema: benchmark reduction not one of "
            "none/symmetry/por/both");
      }
    }
    // Engine-sweep rows: "engine" (when present) must be a known engine.
    if (const JsonValue* engine = row.find("engine"); engine != nullptr) {
      if (!engine->is_string() || (engine->string_value != "serial" &&
                                   engine->string_value != "parallel" &&
                                   engine->string_value != "auto")) {
        return invalid_argument(
            "bench schema: benchmark engine not one of "
            "serial/parallel/auto");
      }
    }
    // Symmetry-cost rows: "sym_cost" (when present) names which side of the
    // reduction-off/on wall-clock pair the row is.
    if (const JsonValue* sym_cost = row.find("sym_cost");
        sym_cost != nullptr) {
      if (!sym_cost->is_string() || (sym_cost->string_value != "none" &&
                                     sym_cost->string_value != "symmetry")) {
        return invalid_argument(
            "bench schema: benchmark sym_cost not one of none/symmetry");
      }
    }
    // Every row is a measurement. A rate of 0 is what the script writes when
    // its parse of explorer_cli's "elapsed ... nodes/s" line comes up empty.
    for (const char* field : {"nodes", "nodes_per_sec"}) {
      const JsonValue* v = row.find(field);
      if (v == nullptr || !v->is_number() || !v->number_is_integer ||
          v->int_value <= 0) {
        return invalid_argument(std::string("bench schema: benchmark ") +
                                field + " missing or not a positive integer");
      }
    }
    for (const char* field : {"reduction_ratio", "threads",
                              "threads_available"}) {
      if (const JsonValue* v = row.find(field); v != nullptr) {
        if (!v->is_number()) {
          return invalid_argument(std::string("bench schema: benchmark ") +
                                  field + " not a number");
        }
      }
    }
  }
  const JsonValue* reports = root.find("run_reports");
  if (reports == nullptr || !reports->is_object()) {
    return invalid_argument(
        "bench schema: run_reports missing or not an object");
  }
  for (const auto& [name, value] : reports->members) {
    Status s = check_run_report_value(value);
    if (!s.is_ok()) {
      return invalid_argument("bench schema: run_reports." + name + ": " +
                              s.message());
    }
  }
  return Status::ok();
}

namespace {

Status hierarchy_error(const std::string& what) {
  return invalid_argument("hierarchy schema: " + what);
}

// A required integer field with a lower bound; `where` names the row.
Status check_hierarchy_int(const JsonValue& obj, const char* field,
                           std::int64_t min, const std::string& where,
                           std::int64_t* out = nullptr) {
  const JsonValue* v = obj.find(field);
  if (v == nullptr || !v->is_number() || !v->number_is_integer) {
    return hierarchy_error(where + "." + field + " missing or not an integer");
  }
  if (v->int_value < min) {
    return hierarchy_error(where + "." + field + " < " +
                           std::to_string(min));
  }
  if (out != nullptr) *out = v->int_value;
  return Status::ok();
}

Status check_hierarchy_true(const JsonValue& obj, const char* field,
                            const std::string& where) {
  const JsonValue* v = obj.find(field);
  if (v == nullptr || v->kind != JsonValue::Kind::kBool) {
    return hierarchy_error(where + "." + field + " missing or not a bool");
  }
  if (!v->bool_value) {
    return hierarchy_error(where + "." + field + " is false");
  }
  return Status::ok();
}

// One "consensus"/"dac" check object: ok verdict plus sane graph counts.
Status check_hierarchy_check(const JsonValue& row, const char* field,
                             std::int64_t expected_processes,
                             const std::string& where) {
  const JsonValue* check = row.find(field);
  const std::string path = where + "." + field;
  if (check == nullptr || !check->is_object()) {
    return hierarchy_error(path + " missing or not an object");
  }
  if (Status s = check_hierarchy_true(*check, "ok", path); !s.is_ok()) {
    return s;
  }
  std::int64_t processes = 0;
  if (Status s = check_hierarchy_int(*check, "processes", 1, path, &processes);
      !s.is_ok()) {
    return s;
  }
  if (processes != expected_processes) {
    return hierarchy_error(path + ".processes != " +
                           std::to_string(expected_processes));
  }
  std::int64_t nodes = 0;
  std::int64_t nodes_full = 0;
  if (Status s = check_hierarchy_int(*check, "nodes", 1, path, &nodes);
      !s.is_ok()) {
    return s;
  }
  if (Status s = check_hierarchy_int(*check, "transitions", 1, path);
      !s.is_ok()) {
    return s;
  }
  if (Status s =
          check_hierarchy_int(*check, "nodes_full", 1, path, &nodes_full);
      !s.is_ok()) {
    return s;
  }
  if (nodes_full < nodes) {
    return hierarchy_error(path + ".nodes_full < nodes");
  }
  const JsonValue* ratio = check->find("reduction_ratio");
  if (ratio == nullptr || !ratio->is_number()) {
    return hierarchy_error(path + ".reduction_ratio missing or not a number");
  }
  if (ratio->number_value < 1.0) {
    return hierarchy_error(path + ".reduction_ratio < 1.0");
  }
  return Status::ok();
}

}  // namespace

Status validate_hierarchy_artifact_json(std::string_view json) {
  StatusOr<JsonValue> parsed = parse_json(json);
  if (!parsed.is_ok()) return parsed.status();
  const JsonValue& root = parsed.value();
  if (!root.is_object()) {
    return hierarchy_error("document not an object");
  }
  const JsonValue* version = root.find("lbsa_hierarchy_schema");
  if (version == nullptr || !version->is_number() ||
      !version->number_is_integer || version->int_value != 1) {
    return hierarchy_error("lbsa_hierarchy_schema != 1");
  }
  std::int64_t n_min = 0;
  std::int64_t n_max = 0;
  if (Status s = check_hierarchy_int(root, "n_min", 2, "root", &n_min);
      !s.is_ok()) {
    return s;
  }
  if (Status s = check_hierarchy_int(root, "n_max", 2, "root", &n_max);
      !s.is_ok()) {
    return s;
  }
  if (n_max < n_min) return hierarchy_error("n_max < n_min");

  const JsonValue* rows = root.find("rows");
  if (rows == nullptr || !rows->is_array()) {
    return hierarchy_error("rows missing or not an array");
  }
  // Exact lexicographic coverage of [n_min, n_max] x [1, n].
  std::size_t index = 0;
  for (std::int64_t n = n_min; n <= n_max; ++n) {
    for (std::int64_t m = 1; m <= n; ++m, ++index) {
      const std::string where =
          "rows[" + std::to_string(index) + "] (n=" + std::to_string(n) +
          ",m=" + std::to_string(m) + ")";
      if (index >= rows->array.size()) {
        return hierarchy_error(where + " missing: sweep does not cover the "
                                       "full (n, m) grid");
      }
      const JsonValue& row = rows->array[index];
      if (!row.is_object()) return hierarchy_error(where + " not an object");
      std::int64_t row_n = 0;
      std::int64_t row_m = 0;
      if (Status s = check_hierarchy_int(row, "n", 2, where, &row_n);
          !s.is_ok()) {
        return s;
      }
      if (Status s = check_hierarchy_int(row, "m", 1, where, &row_m);
          !s.is_ok()) {
        return s;
      }
      if (row_n != n || row_m != m) {
        return hierarchy_error(where + " out of lexicographic order");
      }
      const JsonValue* object = row.find("object");
      if (object == nullptr || !object->is_string() ||
          object->string_value.empty()) {
        return hierarchy_error(where + ".object missing or empty");
      }
      std::int64_t level = 0;
      if (Status s =
              check_hierarchy_int(row, "declared_level", 1, where, &level);
          !s.is_ok()) {
        return s;
      }
      if (level != m) {
        return hierarchy_error(where + ".declared_level != m (Theorem 5.3)");
      }
      const JsonValue* source = row.find("level_source");
      if (source == nullptr || !source->is_string() ||
          source->string_value.empty()) {
        return hierarchy_error(where + ".level_source missing or empty");
      }
      if (Status s = check_hierarchy_check(row, "consensus", m, where);
          !s.is_ok()) {
        return s;
      }
      if (Status s = check_hierarchy_true(row, "consensus_ok_all_p", where);
          !s.is_ok()) {
        return s;
      }
      if (Status s = check_hierarchy_check(row, "dac", n, where);
          !s.is_ok()) {
        return s;
      }
      if (Status s = check_hierarchy_true(row, "matches_catalog", where);
          !s.is_ok()) {
        return s;
      }
    }
  }
  if (index != rows->array.size()) {
    return hierarchy_error("rows has " + std::to_string(rows->array.size()) +
                           " entries, expected " + std::to_string(index));
  }

  const JsonValue* provenance = root.find("provenance");
  if (provenance == nullptr || !provenance->is_object()) {
    return hierarchy_error("provenance missing or not an object");
  }
  const JsonValue* tool = provenance->find("tool");
  if (tool == nullptr || !tool->is_string() ||
      tool->string_value != "hierarchy_sweep_cli") {
    return hierarchy_error("provenance.tool != hierarchy_sweep_cli");
  }
  const JsonValue* engine = provenance->find("engine");
  if (engine == nullptr || !engine->is_string() ||
      (engine->string_value != "serial" &&
       engine->string_value != "parallel" &&
       engine->string_value != "auto")) {
    return hierarchy_error(
        "provenance.engine not one of serial/parallel/auto");
  }
  if (Status s =
          check_hierarchy_int(*provenance, "threads", 0, "provenance");
      !s.is_ok()) {
    return s;
  }
  if (Status s = check_hierarchy_int(*provenance, "threads_available", 1,
                                     "provenance");
      !s.is_ok()) {
    return s;
  }
  const JsonValue* reduction = provenance->find("reduction");
  if (reduction == nullptr || !reduction->is_string() ||
      reduction->string_value != "symmetry") {
    return hierarchy_error(
        "provenance.reduction != symmetry (sweep rows are pinned)");
  }
  return Status::ok();
}

Status write_text_file(const std::string& path, std::string_view text) {
  // Stage in a same-directory temp file, then rename: POSIX rename is
  // atomic, so a reader (or a second interrupt) never sees a torn artifact.
  // The staging name carries the pid and a per-process count, so writers
  // staging the same path at once (two threads, or two processes) never
  // truncate or rename each other's half-written bytes: the last rename
  // wins with a complete file.
  static std::atomic<std::uint64_t> staged{0};
  const std::string staging =
      path + ".tmp." + std::to_string(static_cast<long long>(::getpid())) +
      "." + std::to_string(staged.fetch_add(1, std::memory_order_relaxed));
  std::FILE* f = std::fopen(staging.c_str(), "wb");
  if (f == nullptr) {
    return internal_error("obs: cannot open '" + staging + "' for writing");
  }
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const bool flush_ok = std::fflush(f) == 0;
  const bool close_ok = std::fclose(f) == 0;
  if (written != text.size() || !flush_ok || !close_ok) {
    std::remove(staging.c_str());
    return internal_error("obs: short write to '" + staging + "'");
  }
  if (std::rename(staging.c_str(), path.c_str()) != 0) {
    std::remove(staging.c_str());
    return internal_error("obs: cannot rename '" + staging + "' to '" + path +
                          "'");
  }
  return Status::ok();
}

Status write_run_report(const RunReport& report, const std::string& path) {
  std::string json = report.to_json();
  Status s = validate_run_report_json(json);
  if (!s.is_ok()) return s;
  json += '\n';
  return write_text_file(path, json);
}

}  // namespace lbsa::obs
