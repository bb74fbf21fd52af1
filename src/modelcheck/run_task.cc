#include "modelcheck/run_task.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>

#include "obs/json.h"

namespace lbsa::modelcheck {
namespace {

// printf-append onto a std::string; the human summaries reuse the CLIs'
// exact format strings so tools parsing stdout (run_report.sh) keep working.
void appendf(std::string* out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  if (n > 0) {
    const std::size_t old = out->size();
    out->resize(old + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(out->data() + old, static_cast<std::size_t>(n) + 1, fmt,
                   args);
    out->resize(old + static_cast<std::size_t>(n));
  }
  va_end(args);
}

}  // namespace

TaskRunResult run_explore_task(const NamedTask& task,
                               const ExploreTaskSpec& spec) {
  TaskRunResult result;
  const ExploreOptions& options = spec.options;

  Explorer explorer(task.protocol);
  auto graph_or = explorer.explore(options);
  if (!graph_or.is_ok()) {
    result.exit_code = 1;
    result.error = task.name + ": " + graph_or.status().to_string();
    return result;
  }
  const ConfigGraph& graph = graph_or.value();
  // Truncated and interrupted graphs are incomplete: the full-graph estimate
  // only covers visited orbits, so the reduction ratio would understate the
  // reduction (or divide nonsense) — omit it rather than mislead.
  const bool complete = !graph.truncated() && !graph.interrupted();
  result.work_items = graph.nodes().size();

  std::uint32_t max_depth = 0;
  for (const Node& node : graph.nodes()) {
    if (node.depth > max_depth) max_depth = node.depth;
  }
  appendf(&result.human, "%s: %zu nodes, %llu transitions, depth %u%s%s\n",
          task.name.c_str(), graph.nodes().size(),
          static_cast<unsigned long long>(graph.transition_count()), max_depth,
          graph.truncated() ? " (truncated)" : "",
          graph.interrupted() ? " (interrupted)" : "");
  if (graph.interrupted()) {
    const std::string resume_hint =
        options.checkpoint_path.empty()
            ? ""
            : "; resume with --resume " + options.checkpoint_path;
    appendf(&result.human, "  interrupted after %u levels, %zu nodes pending%s\n",
            graph.levels_completed(), graph.pending_frontier().size(),
            resume_hint.c_str());
  }
  if (options.reduction != Reduction::kNone && complete &&
      !graph.nodes().empty()) {
    const std::uint64_t full_estimate = graph.full_node_estimate();
    appendf(&result.human, "  reduction=%s: >=%llu full-graph nodes, ratio %.2fx\n",
            reduction_name(graph.reduction()),
            static_cast<unsigned long long>(full_estimate),
            static_cast<double>(full_estimate) /
                static_cast<double>(graph.nodes().size()));
  }

  result.report.task = task.name;
  result.report.params = {
      {"threads", std::to_string(options.threads)},
      // How many cores the host actually had: bench rows that claim a
      // parallel speedup are uninterpretable without it.
      {"threads_available",
       std::to_string(std::thread::hardware_concurrency())},
      {"engine", "\"" + std::string(engine_name(options.engine)) + "\""},
      {"max_nodes", std::to_string(options.max_nodes)},
      {"allow_truncation", options.allow_truncation ? "true" : "false"},
      {"reduction",
       "\"" + std::string(reduction_name(options.reduction)) + "\""},
  };
  if (!spec.resumed_from.empty()) {
    result.report.params.emplace_back(
        "resumed_from", "\"" + obs::json_escape(spec.resumed_from) + "\"");
  }
  {
    obs::JsonWriter w;
    w.begin_object();
    w.key("nodes");
    w.value_uint(graph.nodes().size());
    w.key("transitions");
    w.value_uint(graph.transition_count());
    w.key("max_depth");
    w.value_uint(max_depth);
    w.key("truncated");
    w.value_bool(graph.truncated());
    w.key("interrupted");
    w.value_bool(graph.interrupted());
    w.key("levels_completed");
    w.value_uint(graph.levels_completed());
    w.key("reduction");
    w.value_string(reduction_name(graph.reduction()));
    // The engine that actually ran (kAuto resolves to one of the concrete
    // engines; auto_switched records a mid-run serial->parallel handoff).
    w.key("engine_used");
    w.value_string(engine_name(graph.engine_used()));
    w.key("auto_switched");
    w.value_bool(graph.auto_switched());
    // Only on complete graphs (see `complete` above): the schema validator
    // rejects a ratio sitting next to truncated/interrupted = true.
    if (complete && !graph.nodes().empty()) {
      const std::uint64_t full_estimate = graph.full_node_estimate();
      w.key("nodes_full_estimate");
      w.value_uint(full_estimate);
      w.key("reduction_ratio");
      w.value_double(static_cast<double>(full_estimate) /
                     static_cast<double>(graph.nodes().size()));
    }
    w.end_object();
    result.report.sections.emplace_back("explorer", std::move(w).str());
  }
  result.report_valid = true;

  if (graph.interrupted()) {
    result.exit_code = 4;
  } else if (graph.truncated()) {
    result.exit_code = 3;
    result.error = task.name +
                   ": truncated at --max-nodes: property verdicts that rely "
                   "on absence (no violation found) are unsound on a partial "
                   "graph";
  }
  return result;
}

FuzzTaskRunResult run_fuzz_task(const NamedTask& task,
                                const FuzzTaskSpec& spec) {
  FuzzTaskRunResult result;
  if (const Status valid = validate_fuzz_options(spec.options);
      !valid.is_ok()) {
    result.exit_code = 2;
    result.error = valid.to_string();
    return result;
  }

  result.fuzz = fuzz_named_task(task, spec.options);
  const FuzzReport& report = result.fuzz;
  result.work_items = report.runs_executed;

  appendf(&result.human,
          "%s: %llu runs (%llu terminated), %llu distinct fingerprints, "
          "%llu interesting, %llu mutated, %zu violations "
          "(%llu shrink replays)%s\n",
          task.name.c_str(),
          static_cast<unsigned long long>(report.runs_executed),
          static_cast<unsigned long long>(report.runs_terminated),
          static_cast<unsigned long long>(report.distinct_fingerprints),
          static_cast<unsigned long long>(report.interesting_runs),
          static_cast<unsigned long long>(report.mutated_runs),
          report.violations.size(),
          static_cast<unsigned long long>(report.shrink_replays),
          report.interrupted ? " [interrupted]" : "");
  if (report.interrupted && !spec.options.checkpoint_path.empty() &&
      report.checkpoint_error.empty()) {
    appendf(&result.human, "  resume with --resume %s\n",
            spec.options.checkpoint_path.c_str());
  }

  // An interrupted campaign is an incomplete sample: don't judge the task
  // expectation on it (exit 4 below instead).
  const bool expected =
      report.interrupted || (report.ok() != task.expect_violation);
  if (!expected) {
    result.error = task.name + ": unexpected outcome (" +
                   (task.expect_violation ? "broken" : "correct") + " task, " +
                   std::to_string(report.violations.size()) + " violations)";
  }

  result.report.task = task.name;
  result.report.params = {
      {"runs", std::to_string(spec.options.runs)},
      {"seed", std::to_string(report.seed)},
      {"threads", std::to_string(report.threads)},
      {"engine", "\"" + report.engine + "\""},
      {"max_violations", std::to_string(spec.options.max_violations)},
  };
  if (!spec.resumed_from.empty()) {
    result.report.params.emplace_back(
        "resumed_from", "\"" + obs::json_escape(spec.resumed_from) + "\"");
  }
  {
    obs::JsonWriter w;
    w.begin_object();
    w.key("runs_executed");
    w.value_uint(report.runs_executed);
    w.key("runs_terminated");
    w.value_uint(report.runs_terminated);
    w.key("distinct_fingerprints");
    w.value_uint(report.distinct_fingerprints);
    w.key("interesting_runs");
    w.value_uint(report.interesting_runs);
    w.key("mutated_runs");
    w.value_uint(report.mutated_runs);
    w.key("shrink_replays");
    w.value_uint(report.shrink_replays);
    w.key("violations");
    w.value_uint(report.violations.size());
    w.key("interrupted");
    w.value_bool(report.interrupted);
    w.key("expected_outcome");
    w.value_bool(expected);
    w.end_object();
    result.report.sections.emplace_back("fuzz", std::move(w).str());
  }
  result.report_valid = true;

  if (!report.checkpoint_error.empty()) {
    result.exit_code = 1;
    result.error = task.name + ": checkpoint write failed: " +
                   report.checkpoint_error;
  } else if (report.interrupted) {
    result.exit_code = 4;
  } else if (!expected) {
    result.exit_code = 1;
  }
  return result;
}

}  // namespace lbsa::modelcheck
