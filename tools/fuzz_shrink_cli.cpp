// fuzz_shrink_cli — fuzz a named protocol task, shrink every finding, and
// emit the findings as corpus files (modelcheck/corpus.h format). The
// produced files are meant to be checked in under tests/corpus/, where the
// corpus replay test re-executes them on every ctest run.
//
//   ./fuzz_shrink_cli --list
//   ./fuzz_shrink_cli <task> [--runs N] [--seed S] [--threads T]
//                     [--coverage] [--max-violations V] [--out DIR]
//                     [--deadline-s S] [--stop-after-runs N]
//                     [--checkpoint PATH] [--checkpoint-every N]
//                     [--resume PATH]
//                     [--metrics-json PATH] [--trace-out PATH]
//                     [--heartbeat-out PATH] [--heartbeat-every S]
//
// Without --out, found schedules are printed to stdout. --metrics-json
// writes a versioned RunReport (docs/observability.md); --trace-out writes
// a chrome://tracing timeline. --heartbeat-out streams one JSON heartbeat
// line per --heartbeat-every seconds (default 1); `lbsa_watch` tails it.
//
// Long campaigns (docs/checking.md, "Long runs"): SIGINT (or --deadline-s /
// --stop-after-runs) stops the campaign at the next run boundary; with
// --checkpoint (coverage engine only) the RNG position, coverage pool, and
// raw violations are flushed to a resumable checkpoint, and --resume
// continues to a byte-identical final report. A second SIGINT kills the
// process immediately.
//
// Numeric flags parse strictly: a value that is not wholly a number in
// range (--runs and --max-violations start at 1) is a usage error naming
// the flag.
//
// Exit codes:
//   0  campaign complete, outcome matches the task's expectation
//      (violations for broken tasks, a clean report for correct ones)
//   1  error, or outcome does not match the expectation
//   2  usage error
//   4  interrupted at a run boundary (outcome not judged — the campaign is
//      incomplete); resumable if --checkpoint was given
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "modelcheck/cancel.h"
#include "modelcheck/checkpoint.h"
#include "modelcheck/corpus.h"
#include "modelcheck/run_task.h"
#include "obs/cli.h"
#include "obs/json.h"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: fuzz_shrink_cli --list\n"
      "       fuzz_shrink_cli <task> [--runs N] [--seed S] [--threads T]\n"
      "                       [--coverage] [--max-violations V] [--out DIR]\n"
      "                       [--deadline-s S] [--stop-after-runs N]\n"
      "                       [--checkpoint PATH] [--checkpoint-every N]\n"
      "                       [--resume PATH] [--run-nonce NONCE]\n"
      "                       [--metrics-json PATH] [--trace-out PATH]\n"
      "                       [--heartbeat-out PATH] [--heartbeat-every S]\n");
  return 2;
}

lbsa::modelcheck::CancelToken g_cancel;

// First ^C: trip the token; the campaign stops at the next run boundary and
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
      std::printf("%-28s %s%s\n", name.c_str(),
                  task.value().description.c_str(),
                  task.value().expect_violation ? "  [broken]" : "");
    }
    return 0;
  }

  auto task_or = modelcheck::make_named_task(argv[1]);
  if (!task_or.is_ok()) {
    std::fprintf(stderr, "%s\n", task_or.status().to_string().c_str());
    return usage();
  }
  const modelcheck::NamedTask& task = task_or.value();

  modelcheck::FuzzOptions options;
  options.runs = 2000;
  const char* out_dir = nullptr;
  std::string resume_path;
  std::string run_nonce;
  obs::ObsCli obs_cli("fuzz_shrink_cli");
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
    } else if (!std::strcmp(argv[i], "--runs")) {
      // A zero-run campaign would report "no violations" on no evidence.
      options.runs =
          obs::parse_count_flag("--runs", next_arg("--runs"), 1, UINT64_MAX);
    } else if (!std::strcmp(argv[i], "--seed")) {
      options.seed =
          obs::parse_count_flag("--seed", next_arg("--seed"), 0, UINT64_MAX);
    } else if (!std::strcmp(argv[i], "--threads")) {
      options.threads = static_cast<int>(obs::parse_count_flag(
          "--threads", next_arg("--threads"), 0, INT_MAX));
    } else if (!std::strcmp(argv[i], "--max-violations")) {
      options.max_violations = static_cast<int>(obs::parse_count_flag(
          "--max-violations", next_arg("--max-violations"), 1, INT_MAX));
    } else if (!std::strcmp(argv[i], "--coverage")) {
      options.coverage_guided = true;
    } else if (!std::strcmp(argv[i], "--out")) {
      out_dir = next_arg("--out");
    } else if (!std::strcmp(argv[i], "--deadline-s")) {
      const double seconds =
          obs::parse_seconds_flag("--deadline-s", next_arg("--deadline-s"));
      options.deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(seconds));
    } else if (!std::strcmp(argv[i], "--stop-after-runs")) {
      options.stop_after_runs = obs::parse_count_flag(
          "--stop-after-runs", next_arg("--stop-after-runs"), 0, UINT64_MAX);
    } else if (!std::strcmp(argv[i], "--checkpoint")) {
      options.checkpoint_path = next_arg("--checkpoint");
    } else if (!std::strcmp(argv[i], "--checkpoint-every")) {
      options.checkpoint_every_runs = obs::parse_count_flag(
          "--checkpoint-every", next_arg("--checkpoint-every"), 0,
          UINT64_MAX);
    } else if (!std::strcmp(argv[i], "--resume")) {
      resume_path = next_arg("--resume");
    } else if (!std::strcmp(argv[i], "--run-nonce")) {
      run_nonce = next_arg("--run-nonce");
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return usage();
    }
  }
  if (!options.coverage_guided &&
      (!options.checkpoint_path.empty() || !resume_path.empty() ||
       options.stop_after_runs != 0)) {
    std::fprintf(stderr,
                 "--checkpoint/--resume/--stop-after-runs need --coverage "
                 "(the blind engine's run order is thread-scheduling "
                 "dependent, so it cannot checkpoint deterministically)\n");
    return usage();
  }
  options.checkpoint_label = task.name;

  modelcheck::FuzzCheckpoint checkpoint;
  if (!resume_path.empty()) {
    auto cp = modelcheck::read_fuzz_checkpoint(resume_path);
    if (!cp.is_ok()) {
      std::fprintf(stderr, "--resume %s: %s\n", resume_path.c_str(),
                   cp.status().to_string().c_str());
      return 1;
    }
    checkpoint = std::move(cp).value();
    if (const Status s = modelcheck::validate_fuzz_resume(
            *task.protocol, options, checkpoint);
        !s.is_ok()) {
      std::fprintf(stderr, "--resume %s: %s\n", resume_path.c_str(),
                   s.to_string().c_str());
      return 1;
    }
    options.resume = &checkpoint;
  }

  std::signal(SIGINT, on_sigint);
  options.cancel = &g_cancel;

  if (obs_cli.heartbeat_requested()) {
    // Stable across threads and resume: a resumed campaign (same task,
    // engine, and budget) appends to the same stream as a continuation.
    // --run-nonce disambiguates otherwise-identical concurrent campaigns;
    // pass the same nonce when resuming such a campaign.
    const std::string run_id = obs::derive_run_id(
        "fuzz_shrink_cli", task.name,
        options.coverage_guided ? "coverage" : "blind", options.runs,
        run_nonce);
    if (const Status s = obs_cli.start_heartbeat(task.name, run_id);
        !s.is_ok()) {
      std::fprintf(stderr, "%s\n", s.to_string().c_str());
      return 1;
    }
  }

  // run_fuzz_task owns the campaign and the deterministic outputs (summary
  // text, RunReport skeleton); the CLI keeps the rest: obs
  // finalization, stderr, corpus emission, exit code.
  modelcheck::FuzzTaskSpec spec;
  spec.options = std::move(options);
  spec.resumed_from = resume_path;
  modelcheck::FuzzTaskRunResult result = modelcheck::run_fuzz_task(task, spec);
  if (!result.report_valid) {
    std::fprintf(stderr, "%s\n", result.error.c_str());
    return result.exit_code;
  }
  const modelcheck::FuzzReport& report = result.fuzz;
  std::fputs(result.human.c_str(), stdout);

  // An interrupted campaign is an incomplete sample: don't judge the task
  // expectation on it (exit 4 below instead).
  const bool expected =
      report.interrupted || (report.ok() != task.expect_violation);
  if (!expected) {
    std::fprintf(stderr, "%s: unexpected outcome (%s task, %zu violations)\n",
                 task.name.c_str(),
                 task.expect_violation ? "broken" : "correct",
                 report.violations.size());
  }

  // Finalize obs artifacts BEFORE corpus emission: the emission loop has
  // internal-error exits, and an interrupted/failed campaign must still
  // leave complete, valid --metrics-json/--trace-out files behind.
  if (const Status s = obs_cli.finish(&result.report); !s.is_ok()) {
    std::fprintf(stderr, "%s\n", s.to_string().c_str());
    return 1;
  }

  // Violations found before an interruption are still real findings — emit
  // them either way.
  int file_index = 0;
  for (const modelcheck::FuzzViolation& v : report.violations) {
    std::printf("  %s: %s — %llu raw steps -> %llu shrunk\n",
                v.property.c_str(), v.detail.c_str(),
                static_cast<unsigned long long>(v.raw_steps),
                static_cast<unsigned long long>(v.shrunk_steps));
    modelcheck::CorpusCase c;
    c.task = task.name;
    c.property = v.property;
    c.detail = v.detail + " (run_seed " + std::to_string(v.run_seed) +
               ", raw " + std::to_string(v.raw_steps) + " steps)";
    c.seed = report.seed;
    c.engine = report.engine;
    auto schedule = sim::parse_schedule(v.shrunk_schedule);
    if (!schedule.is_ok()) {
      std::fprintf(stderr, "internal error: shrunk schedule unparsable: %s\n",
                   schedule.status().to_string().c_str());
      return 1;
    }
    c.schedule = schedule.value();
    const Status replay = modelcheck::replay_corpus_case(c);
    if (!replay.is_ok()) {
      std::fprintf(stderr, "internal error: corpus case fails replay: %s\n",
                   replay.to_string().c_str());
      return 1;
    }
    const std::string text = modelcheck::corpus_case_to_string(c);
    if (out_dir != nullptr) {
      const std::string path = std::string(out_dir) + "/" + task.name + "-" +
                               v.property + "-" +
                               std::to_string(file_index++) + ".corpus";
      std::ofstream out(path);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
      }
      out << text;
      std::printf("  wrote %s\n", path.c_str());
    } else {
      std::printf("%s", text.c_str());
    }
  }

  if (!report.checkpoint_error.empty()) {
    std::fprintf(stderr, "%s: checkpoint write failed: %s\n",
                 task.name.c_str(), report.checkpoint_error.c_str());
    return 1;
  }
  if (report.interrupted) return 4;
  return expected ? 0 : 1;
}
