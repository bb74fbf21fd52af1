// explorer_cli — exhaustively explore a named protocol task's configuration
// graph and report its shape, with optional observability artifacts.
//
//   ./explorer_cli --list
//   ./explorer_cli <task> [--threads N]       (N <= 256)
//                  [--engine auto|serial|parallel]
//                  [--max-nodes N] [--allow-truncation]
//                  [--reduction none|symmetry|por|both]
//                  [--canon-cache-bytes N]
//                  [--deadline-s S] [--max-levels N]
//                  [--checkpoint PATH] [--checkpoint-every N]
//                  [--resume PATH]
//                  [--metrics-json PATH] [--trace-out PATH]
//
// --metrics-json writes a versioned RunReport (docs/observability.md);
// --trace-out writes a chrome://tracing timeline with one lane per worker.
// Exploration is deterministic for every thread count / engine, so the
// RunReport's stable metrics compare byte-identical across configurations —
// ObsDeterminism.* (tests/obs/determinism_test.cc) checks exactly that
// through the library at threads 1/2/8 and across engines.
//
// Long runs (docs/checking.md, "Long runs"): SIGINT (or --deadline-s /
// --max-levels) stops the exploration at the next BFS level boundary; with
// --checkpoint the partial graph is flushed to a resumable checkpoint and
// --resume continues it to a bit-identical final graph. A second SIGINT
// kills the process immediately.
//
// Numeric flags parse strictly: a value that is not wholly a number in
// range is a usage error naming the flag.
//
// Exit codes:
//   0  exploration complete
//   1  error (bad checkpoint, I/O failure, exploration error)
//   2  usage error
//   3  complete but truncated at --max-nodes (absence verdicts unsound)
//   4  interrupted at a level boundary; resumable if --checkpoint was given
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "modelcheck/cancel.h"
#include "modelcheck/checkpoint.h"
#include "modelcheck/corpus.h"
#include "modelcheck/explorer.h"
#include "obs/cli.h"
#include "obs/json.h"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: explorer_cli --list\n"
      "       explorer_cli <task> [--threads N]\n"
      "                    [--engine auto|serial|parallel]\n"
      "                    [--max-nodes N] [--allow-truncation]\n"
      "                    [--reduction none|symmetry|por|both]\n"
      "                    [--canon-cache-bytes N]\n"
      "                    [--deadline-s S] [--max-levels N]\n"
      "                    [--checkpoint PATH] [--checkpoint-every N]\n"
      "                    [--resume PATH]\n"
      "                    [--metrics-json PATH] [--trace-out PATH]\n");
  return 2;
}

lbsa::modelcheck::CancelToken g_cancel;

// First ^C: trip the token; the engine stops at the next level boundary and
// flushes a checkpoint + partial report. Second ^C: default disposition
// (kill). CancelToken::cancel is a lock-free atomic store, so this is
// async-signal-safe.
extern "C" void on_sigint(int) {
  g_cancel.cancel();
  std::signal(SIGINT, SIG_DFL);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lbsa;
  if (argc < 2) return usage();

  if (!std::strcmp(argv[1], "--list")) {
    for (const std::string& name : modelcheck::named_task_names()) {
      const auto task = modelcheck::make_named_task(name);
      std::printf("%-28s %s\n", name.c_str(),
                  task.value().description.c_str());
    }
    return 0;
  }

  auto task_or = modelcheck::make_named_task(argv[1]);
  if (!task_or.is_ok()) {
    std::fprintf(stderr, "%s\n", task_or.status().to_string().c_str());
    return usage();
  }
  const modelcheck::NamedTask& task = task_or.value();

  modelcheck::ExploreOptions options;
  options.threads = 1;
  std::string resume_path;
  obs::ObsCli obs_cli("explorer_cli");
  for (int i = 2; i < argc; ++i) {
    auto next_arg = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs an argument\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (obs_cli.consume(argc, argv, &i)) {
      continue;
    } else if (!std::strcmp(argv[i], "--threads")) {
      options.threads = static_cast<int>(obs::parse_count_flag(
          "--threads", next_arg("--threads"), 0, modelcheck::kMaxThreads));
    } else if (!std::strcmp(argv[i], "--max-nodes")) {
      options.max_nodes = obs::parse_count_flag(
          "--max-nodes", next_arg("--max-nodes"), 0, UINT64_MAX);
    } else if (!std::strcmp(argv[i], "--allow-truncation")) {
      options.allow_truncation = true;
    } else if (!std::strcmp(argv[i], "--reduction")) {
      auto reduction =
          modelcheck::parse_reduction(next_arg("--reduction"));
      if (!reduction.is_ok()) {
        std::fprintf(stderr, "%s\n", reduction.status().to_string().c_str());
        return usage();
      }
      options.reduction = reduction.value();
    } else if (!std::strcmp(argv[i], "--engine")) {
      auto engine = modelcheck::parse_engine(next_arg("--engine"));
      if (!engine.is_ok()) {
        std::fprintf(stderr, "%s\n", engine.status().to_string().c_str());
        return usage();
      }
      options.engine = engine.value();
    } else if (!std::strcmp(argv[i], "--deadline-s")) {
      const double seconds =
          obs::parse_seconds_flag("--deadline-s", next_arg("--deadline-s"));
      options.deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(seconds));
    } else if (!std::strcmp(argv[i], "--max-levels")) {
      options.max_levels = static_cast<std::uint32_t>(obs::parse_count_flag(
          "--max-levels", next_arg("--max-levels"), 0, UINT32_MAX));
    } else if (!std::strcmp(argv[i], "--canon-cache-bytes")) {
      options.canon_cache_bytes = obs::parse_count_flag(
          "--canon-cache-bytes", next_arg("--canon-cache-bytes"), 0,
          SIZE_MAX);
    } else if (!std::strcmp(argv[i], "--checkpoint")) {
      options.checkpoint_path = next_arg("--checkpoint");
    } else if (!std::strcmp(argv[i], "--checkpoint-every")) {
      options.checkpoint_every_levels =
          static_cast<std::uint32_t>(obs::parse_count_flag(
              "--checkpoint-every", next_arg("--checkpoint-every"), 0,
              UINT32_MAX));
    } else if (!std::strcmp(argv[i], "--resume")) {
      resume_path = next_arg("--resume");
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return usage();
    }
  }
  options.checkpoint_label = task.name;

  modelcheck::ExploreCheckpoint checkpoint;
  if (!resume_path.empty()) {
    auto cp = modelcheck::read_explore_checkpoint(resume_path);
    if (!cp.is_ok()) {
      std::fprintf(stderr, "--resume %s: %s\n", resume_path.c_str(),
                   cp.status().to_string().c_str());
      return 1;
    }
    checkpoint = std::move(cp).value();
    options.resume = &checkpoint;
  }

  std::signal(SIGINT, on_sigint);
  options.cancel = &g_cancel;

  const auto t0 = std::chrono::steady_clock::now();
  modelcheck::Explorer explorer(task.protocol);
  auto graph_or = explorer.explore(options);
  if (!graph_or.is_ok()) {
    std::fprintf(stderr, "%s: %s\n", task.name.c_str(),
                 graph_or.status().to_string().c_str());
    return 1;
  }
  const modelcheck::ConfigGraph& graph = graph_or.value();
  // Truncated and interrupted graphs are incomplete: the full-graph estimate
  // only covers visited orbits, so the reduction ratio would understate the
  // reduction (or divide nonsense) — omit it rather than mislead.
  const bool complete = !graph.truncated() && !graph.interrupted();
  // Decodes every node under symmetry reduction: computed once.
  const std::uint64_t full_estimate =
      complete ? graph.full_node_estimate() : 0;

  std::uint32_t max_depth = 0;
  for (std::uint32_t id = 0; id < graph.node_count(); ++id) {
    max_depth = std::max(max_depth, graph.depth(id));
  }
  std::printf("%s: %u nodes, %llu transitions, depth %u%s%s\n",
              task.name.c_str(), graph.node_count(),
              static_cast<unsigned long long>(graph.transition_count()),
              max_depth, graph.truncated() ? " (truncated)" : "",
              graph.interrupted() ? " (interrupted)" : "");
  if (graph.interrupted()) {
    const std::string resume_hint =
        options.checkpoint_path.empty()
            ? ""
            : "; resume with --resume " + options.checkpoint_path;
    std::printf("  interrupted after %u levels, %zu nodes pending%s\n",
                graph.levels_completed(), graph.pending_frontier().size(),
                resume_hint.c_str());
  }
  if (options.reduction != modelcheck::Reduction::kNone && complete &&
      graph.node_count() > 0) {
    std::printf("  reduction=%s: >=%llu full-graph nodes, ratio %.2fx\n",
                modelcheck::reduction_name(graph.reduction()),
                static_cast<unsigned long long>(full_estimate),
                static_cast<double>(full_estimate) /
                    static_cast<double>(graph.node_count()));
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // Wall-clock rate, stdout only: the RunReport's stable sections must stay
  // byte-identical across runs, so timing never lands in --metrics-json
  // (beyond the existing volatile wall_seconds field).
  std::printf("  elapsed %.6f s, %.0f nodes/s\n", elapsed,
              elapsed > 0.0
                  ? static_cast<double>(graph.node_count()) / elapsed
                  : 0.0);
  // The process's peak resident set so far (ru_maxrss is in KB on Linux),
  // on its own line so parsers of the elapsed line are unaffected.
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::printf("  peak RSS %ld MB\n", usage.ru_maxrss / 1024);

  obs::RunReport report;
  report.task = task.name;
  report.params = {
      {"threads", std::to_string(options.threads)},
      // How many cores the host actually had: bench rows that claim a
      // parallel speedup are uninterpretable without it.
      {"threads_available",
       std::to_string(std::thread::hardware_concurrency())},
      {"engine",
       "\"" + std::string(modelcheck::engine_name(options.engine)) + "\""},
      {"max_nodes", std::to_string(options.max_nodes)},
      {"allow_truncation", options.allow_truncation ? "true" : "false"},
      {"reduction",
       "\"" + std::string(modelcheck::reduction_name(options.reduction)) +
           "\""},
  };
  if (!resume_path.empty()) {
    report.params.emplace_back(
        "resumed_from", "\"" + obs::json_escape(resume_path) + "\"");
  }
  {
    obs::JsonWriter w;
    w.begin_object();
    w.key("nodes");
    w.value_uint(graph.node_count());
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
    w.value_string(modelcheck::reduction_name(graph.reduction()));
    // "parallel" iff at least one level generated its successors on the
    // worker pool, else "serial".
    w.key("engine_used");
    w.value_string(modelcheck::engine_name(graph.engine_used()));
    // Only on complete graphs (see `complete` above): the schema validator
    // rejects a ratio sitting next to truncated/interrupted = true.
    if (complete && graph.node_count() > 0) {
      w.key("nodes_full_estimate");
      w.value_uint(full_estimate);
      w.key("reduction_ratio");
      w.value_double(static_cast<double>(full_estimate) /
                     static_cast<double>(graph.node_count()));
    }
    w.end_object();
    report.sections.emplace_back("explorer", std::move(w).str());
  }
  if (const Status s = obs_cli.finish(&report); !s.is_ok()) {
    std::fprintf(stderr, "%s\n", s.to_string().c_str());
    return 1;
  }
  if (graph.interrupted()) return 4;
  if (graph.truncated()) {
    std::fprintf(stderr,
                 "%s: truncated at --max-nodes: property verdicts that rely "
                 "on absence (no violation found) are unsound on a partial "
                 "graph\n",
                 task.name.c_str());
    return 3;
  }
  return 0;
}
