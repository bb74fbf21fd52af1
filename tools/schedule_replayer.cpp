// schedule_replayer — replay a saved schedule against a named protocol and
// dump the resulting run (final states, decisions, full step log). The
// debugging companion of sim/trace.h: model-checker counterexamples and
// interesting adversarial runs are plain text files that replay exactly.
//
//   ./schedule_replayer <protocol> <schedule-file> [--record <out-file>]
//                       [--metrics-json PATH] [--trace-out PATH]
//                       [--heartbeat-out PATH] [--heartbeat-every S]
//   ./schedule_replayer <protocol> --random <seed> [--record <out-file>]
//                       [--metrics-json PATH] [--trace-out PATH]
//                       [--heartbeat-out PATH] [--heartbeat-every S]
//
// Protocol names resolve through the modelcheck/corpus.h registry (the same
// keys tools/fuzz_shrink_cli uses — run `fuzz_shrink_cli --list`); a few
// legacy aliases from before the registry existed are kept below.

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
#include "protocols/ben_or.h"
#include "protocols/dac_from_pac.h"
#include "protocols/one_shot.h"
#include "protocols/straw_dac.h"
#include "sim/trace.h"

namespace {

std::shared_ptr<const lbsa::sim::Protocol> pick(const char* name) {
  using namespace lbsa;
  if (auto task = modelcheck::make_named_task(name); task.is_ok()) {
    return task.value().protocol;
  }
  // Legacy aliases predating the registry.
  if (!std::strcmp(name, "dac4")) {
    return std::make_shared<protocols::DacFromPacProtocol>(
        std::vector<Value>{100, 101, 102, 103});
  }
  if (!std::strcmp(name, "consensus3")) {
    return protocols::make_consensus_via_n_consensus({100, 101, 102});
  }
  if (!std::strcmp(name, "twosa3")) {
    return protocols::make_ksa_via_two_sa({100, 101, 102});
  }
  if (!std::strcmp(name, "benor2")) {
    return std::make_shared<protocols::BenOrProtocol>(
        std::vector<Value>{0, 1}, 8);
  }
  if (!std::strcmp(name, "strawdac")) {
    return std::make_shared<protocols::StrawDacFallbackProtocol>(
        std::vector<Value>{100, 101, 102});
  }
  return nullptr;
}

int usage() {
  std::string names;
  for (const std::string& name : lbsa::modelcheck::named_task_names()) {
    names += " " + name;
  }
  std::fprintf(stderr,
               "usage: schedule_replayer <protocol> <schedule-file>\n"
               "       schedule_replayer <protocol> --random <seed>\n"
               "protocols:%s\n"
               "legacy aliases: dac4 consensus3 twosa3 benor2 strawdac\n",
               names.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  auto protocol = pick(argv[1]);
  if (!protocol) return usage();

  const char* record_path = nullptr;
  lbsa::obs::ObsCli obs_cli("schedule_replayer");
  for (int i = 3; i < argc; ++i) {
    if (obs_cli.consume(argc, argv, &i)) continue;
    if (!std::strcmp(argv[i], "--record") && i + 1 < argc) {
      record_path = argv[++i];
    }
  }

  const bool random_mode = !std::strcmp(argv[2], "--random");
  std::uint64_t seed = 0;
  if (random_mode) {
    if (argc < 4) return usage();
    seed = lbsa::obs::parse_count_flag(
        "--random", argv[3], 0, std::numeric_limits<std::uint64_t>::max());
  }
  if (const lbsa::Status s = obs_cli.start_heartbeat(
          protocol->name(),
          lbsa::obs::derive_run_id("schedule_replayer", protocol->name(),
                                   random_mode ? "random" : "replay", 0));
      !s.is_ok()) {
    std::fprintf(stderr, "%s\n", s.to_string().c_str());
    return 1;
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
