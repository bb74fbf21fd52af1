// explorer_cli — exhaustively explore a named protocol task's configuration
// graph and report its shape, with optional observability artifacts.
//
//   ./explorer_cli --list
//   ./explorer_cli <task> [--threads N]
//                  [--engine auto|serial|parallel]
//                  [--max-nodes N] [--allow-truncation]
//                  [--reduction none|symmetry|por|both]
//                  [--canon-cache-bytes N]
//                  [--deadline-s S] [--max-levels N]
//                  [--checkpoint PATH] [--checkpoint-every N]
//                  [--resume PATH]
//                  [--metrics-json PATH] [--trace-out PATH]
//                  [--heartbeat-out PATH] [--heartbeat-every S]
//
// --metrics-json writes a versioned RunReport (docs/observability.md);
// --trace-out writes a chrome://tracing timeline with one lane per worker.
// --heartbeat-out streams one JSON heartbeat line per --heartbeat-every
// seconds (default 1) while the run is in flight; `lbsa_watch` tails it.
// Exploration is deterministic for every thread count / engine, so the
// RunReport's stable metrics compare byte-identical across configurations —
// the obs determinism test drives this binary at threads=1/2/8 and diffs
// exactly that.
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
#include "modelcheck/run_task.h"
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
      "                    [--resume PATH] [--run-nonce NONCE]\n"
      "                    [--metrics-json PATH] [--trace-out PATH]\n"
      "                    [--heartbeat-out PATH] [--heartbeat-every S]\n");
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
  std::string run_nonce;
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
          "--threads", next_arg("--threads"), 0, INT_MAX));
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
    } else if (!std::strcmp(argv[i], "--run-nonce")) {
      run_nonce = next_arg("--run-nonce");
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

  if (obs_cli.heartbeat_requested()) {
    if (options.resume != nullptr) {
      // Seed the cumulative counters with the checkpoint's totals so the
      // resumed stream continues monotonically from where the interrupted
      // session's heartbeats left off.
      obs::Progress& progress = obs::Progress::global();
      progress.nodes_total.store(checkpoint.node_words.size(),
                                 std::memory_order_relaxed);
      progress.transitions_total.store(checkpoint.transition_count,
                                       std::memory_order_relaxed);
      progress.levels_completed.store(checkpoint.levels_completed,
                                      std::memory_order_relaxed);
      progress.frontier_size.store(checkpoint.frontier.size(),
                                   std::memory_order_relaxed);
    }
    // Stable across engines/threads AND across resume (same task + budget),
    // so the appended stream validates as a continuation. --run-nonce
    // disambiguates otherwise-identical concurrent runs sharing a stream
    // namespace; pass the same nonce when resuming such a run.
    const std::string run_id = obs::derive_run_id(
        "explorer_cli", task.name,
        modelcheck::reduction_name(options.reduction), options.max_nodes,
        run_nonce);
    if (const Status s = obs_cli.start_heartbeat(task.name, run_id);
        !s.is_ok()) {
      std::fprintf(stderr, "%s\n", s.to_string().c_str());
      return 1;
    }
  }

  // run_explore_task owns the exploration and the deterministic outputs
  // (summary text, RunReport skeleton); the CLI keeps the rest:
  // wall-clock timing, obs finalization, stderr, exit code.
  modelcheck::ExploreTaskSpec spec;
  spec.options = std::move(options);
  spec.resumed_from = resume_path;
  const auto t0 = std::chrono::steady_clock::now();
  modelcheck::TaskRunResult result = modelcheck::run_explore_task(task, spec);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (!result.report_valid) {
    std::fprintf(stderr, "%s\n", result.error.c_str());
    return result.exit_code;
  }
  std::fputs(result.human.c_str(), stdout);
  // Wall-clock rate, stdout only: the RunReport's stable sections must stay
  // byte-identical across runs, so timing never lands in --metrics-json
  // (beyond the existing volatile wall_seconds field).
  std::printf("  elapsed %.6f s, %.0f nodes/s\n", elapsed,
              elapsed > 0.0
                  ? static_cast<double>(result.work_items) / elapsed
                  : 0.0);

  if (const Status s = obs_cli.finish(&result.report); !s.is_ok()) {
    std::fprintf(stderr, "%s\n", s.to_string().c_str());
    return 1;
  }
  if (!result.error.empty()) {
    std::fprintf(stderr, "%s\n", result.error.c_str());
  }
  return result.exit_code;
}
