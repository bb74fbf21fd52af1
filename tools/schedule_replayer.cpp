// schedule_replayer — replay a saved schedule against a named protocol and
// dump the resulting run (final states, decisions, full step log). The
// debugging companion of sim/trace.h: model-checker counterexamples and
// interesting adversarial runs are plain text files that replay exactly.
//
//   ./schedule_replayer <protocol> <schedule-file> [--record <out-file>]
//                       [--metrics-json PATH] [--trace-out PATH]
//   ./schedule_replayer <protocol> --random <seed> [--record <out-file>]
//                       [--metrics-json PATH] [--trace-out PATH]
//
// Protocol names resolve through the modelcheck/corpus.h registry (the same
// keys tools/fuzz_shrink_cli uses — run `fuzz_shrink_cli --list`).
//
// Exit codes:
//   0  replayed (and recorded, with --record)
//   1  unreadable or unreplayable schedule, or a failed write
//   2  usage error: unknown protocol or flag, a flag missing its value, or
//      a --random seed that is not a whole number

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>

#include "modelcheck/corpus.h"
#include "obs/cli.h"
#include "obs/json.h"
#include "sim/trace.h"

namespace {

int usage() {
  std::string names;
  for (const std::string& name : lbsa::modelcheck::named_task_names()) {
    names += " " + name;
  }
  std::fprintf(stderr,
               "usage: schedule_replayer <protocol> <schedule-file> "
               "[--record PATH]\n"
               "       schedule_replayer <protocol> --random <seed> "
               "[--record PATH]\n"
               "       [--metrics-json PATH] [--trace-out PATH]\n"
               "protocols:%s\n",
               names.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  auto task = lbsa::modelcheck::make_named_task(argv[1]);
  if (!task.is_ok()) {
    std::fprintf(stderr, "%s\n", task.status().to_string().c_str());
    return usage();
  }
  const std::shared_ptr<const lbsa::sim::Protocol> protocol =
      task.value().protocol;

  const bool random_mode = !std::strcmp(argv[2], "--random");
  std::uint64_t seed = 0;
  if (random_mode) {
    if (argc < 4) return usage();
    seed = lbsa::obs::parse_count_flag(
        "--random", argv[3], 0, std::numeric_limits<std::uint64_t>::max());
  }

  const char* record_path = nullptr;
  lbsa::obs::ObsCli obs_cli("schedule_replayer");
  for (int i = random_mode ? 4 : 3; i < argc; ++i) {
    if (obs_cli.consume(argc, argv, &i)) continue;
    if (!std::strcmp(argv[i], "--record")) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--record needs an argument\n");
        return 2;
      }
      record_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return usage();
    }
  }

  lbsa::sim::Simulation* run = nullptr;
  std::optional<lbsa::sim::Simulation> random_run;
  lbsa::StatusOr<lbsa::sim::Simulation> replayed =
      lbsa::invalid_argument("unset");

  if (random_mode) {
    random_run.emplace(protocol);
    lbsa::sim::RandomAdversary adversary(seed);
    random_run->run(&adversary, {.max_steps = 100'000});
    run = &*random_run;
  } else {
    std::ifstream in(argv[2]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[2]);
      return 1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    auto schedule = lbsa::sim::parse_schedule(buffer.str());
    if (!schedule.is_ok()) {
      std::fprintf(stderr, "parse error: %s\n",
                   schedule.status().to_string().c_str());
      return 1;
    }
    replayed = lbsa::sim::replay_schedule(protocol, schedule.value());
    if (!replayed.is_ok()) {
      std::fprintf(stderr, "replay error: %s\n",
                   replayed.status().to_string().c_str());
      return 1;
    }
    run = &replayed.value();
  }

  std::printf("%s — %zu steps\n", protocol->name().c_str(),
              run->history().size());
  for (const auto& step : run->history()) {
    std::printf("  %s\n", step.to_string(*protocol).c_str());
  }
  std::printf("final states:\n");
  for (size_t pid = 0; pid < run->config().procs.size(); ++pid) {
    std::printf("  p%zu %s\n", pid,
                run->config().procs[pid].to_string().c_str());
  }
  const auto decisions = run->distinct_decisions();
  std::printf("distinct decisions: %zu\n", decisions.size());

  if (record_path != nullptr) {
    std::ofstream out(record_path);
    out << lbsa::sim::schedule_to_string(*protocol, run->history());
    out.close();
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", record_path);
      return 1;
    }
    std::printf("schedule written to %s\n", record_path);
  }

  lbsa::obs::RunReport run_report;
  run_report.task = protocol->name();
  run_report.params = {
      {"protocol", "\"" + lbsa::obs::json_escape(argv[1]) + "\""},
      {"mode", random_mode ? "\"random\"" : "\"replay\""},
  };
  {
    lbsa::obs::JsonWriter w;
    w.begin_object();
    w.key("steps");
    w.value_uint(run->history().size());
    w.key("distinct_decisions");
    w.value_uint(decisions.size());
    w.end_object();
    run_report.sections.emplace_back("replay", std::move(w).str());
  }
  if (const lbsa::Status s = obs_cli.finish(&run_report); !s.is_ok()) {
    std::fprintf(stderr, "%s\n", s.to_string().c_str());
    return 1;
  }
  return 0;
}
