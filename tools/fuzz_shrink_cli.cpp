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
//
// Without --out, found schedules are printed to stdout. --metrics-json
// writes a versioned RunReport (docs/observability.md); --trace-out writes
// a chrome://tracing timeline.
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
#include "modelcheck/fuzz.h"
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
      "                       [--resume PATH]\n"
      "                       [--metrics-json PATH] [--trace-out PATH]\n");
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
          "--threads", next_arg("--threads"), 0, modelcheck::kMaxThreads));
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

  const modelcheck::FuzzReport report =
      modelcheck::fuzz_named_task(task, options);
  std::printf("%s: %llu runs (%llu terminated), %llu distinct fingerprints, "
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
  if (report.interrupted && !options.checkpoint_path.empty() &&
      report.checkpoint_error.empty()) {
    std::printf("  resume with --resume %s\n", options.checkpoint_path.c_str());
  }

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

  obs::RunReport run_report;
  run_report.task = task.name;
  run_report.params = {
      {"runs", std::to_string(options.runs)},
      {"seed", std::to_string(report.seed)},
      {"threads", std::to_string(report.threads)},
      {"engine", "\"" + report.engine + "\""},
      {"max_violations", std::to_string(options.max_violations)},
  };
  if (!resume_path.empty()) {
    run_report.params.emplace_back(
        "resumed_from", "\"" + obs::json_escape(resume_path) + "\"");
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
    run_report.sections.emplace_back("fuzz", std::move(w).str());
  }

  // Finalize obs artifacts BEFORE corpus emission: the emission loop has
  // internal-error exits, and an interrupted/failed campaign must still
  // leave complete, valid --metrics-json/--trace-out files behind.
  if (const Status s = obs_cli.finish(&run_report); !s.is_ok()) {
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
