// soak — long-running randomized stress harness: continuously hammers the
// concurrent objects from real threads, validating every recorded window
// with the linearizability checker, and interleaves schedule-fuzzing rounds
// over the protocol suite. Exit code 0 = no violation found in the budget.
//
//   ./soak [seconds] [--metrics-json PATH] [--trace-out PATH]   (default 5s)
//
// `seconds` must be a whole number >= 1 (exit 2 otherwise): a soak of 0
// rounds would report clean with no evidence.
//
// Intended uses: a pre-release burn-in (`./soak 300`), a quick sanity pass
// in CI (`./soak 2`), and a TSan/ASan target.

#include <atomic>
#include <chrono>
#include <climits>
#include <cstdio>
#include <memory>
#include <thread>

#include "concurrent/atomic_register.h"
#include "concurrent/atomic_two_sa.h"
#include "concurrent/cas_consensus.h"
#include "concurrent/classic_objects.h"
#include "concurrent/recording.h"
#include "concurrent/spec_backed.h"
#include "core/separation.h"
#include "lincheck/checker.h"
#include "modelcheck/fuzz.h"
#include "obs/cli.h"
#include "obs/json.h"
#include "protocols/ben_or.h"
#include "protocols/dac_from_pac.h"
#include "spec/pac_type.h"
#include "universal/wait_free_universal.h"

namespace {

using Clock = std::chrono::steady_clock;

struct Tally {
  std::uint64_t lincheck_rounds = 0;
  std::uint64_t fuzz_runs = 0;
  std::uint64_t violations = 0;
};

// One lincheck round: 4 threads, 3 ops each, against `object`'s own spec.
template <typename MakeObject, typename MakeOp>
void lincheck_round(const char* label, MakeObject make_object, MakeOp make_op,
                    std::uint64_t round, Tally* tally) {
  auto object = make_object();
  lbsa::lincheck::HistoryLog log;
  lbsa::concurrent::RecordingObject recorder(object.get(), &log);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&recorder, &make_op, t, round] {
      for (int i = 0; i < 3; ++i) {
        recorder.apply_as(t, make_op(t, i, round));
      }
    });
  }
  for (auto& w : workers) w.join();
  auto result =
      lbsa::lincheck::check_linearizable(object->type(), log.snapshot());
  ++tally->lincheck_rounds;
  if (!result.is_ok() || !result.value().linearizable) {
    ++tally->violations;
    std::fprintf(stderr, "VIOLATION [%s] round %llu: %s\n", label,
                 static_cast<unsigned long long>(round),
                 result.is_ok() ? result.value().detail.c_str()
                                : result.status().to_string().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  int seconds = 5;
  lbsa::obs::ObsCli obs_cli("soak");
  for (int i = 1; i < argc; ++i) {
    if (obs_cli.consume(argc, argv, &i)) continue;
    seconds = static_cast<int>(
        lbsa::obs::parse_count_flag("seconds", argv[i], 1, INT_MAX));
  }
  const auto deadline = Clock::now() + std::chrono::seconds(seconds);
  Tally tally;
  std::uint64_t round = 0;

  std::printf("soak: %d second(s) of lincheck stress + schedule fuzzing\n",
              seconds);

  while (Clock::now() < deadline) {
    ++round;

    lincheck_round(
        "cas-consensus",
        [] { return std::make_unique<lbsa::concurrent::CasConsensus>(8); },
        [](int t, int i, std::uint64_t) {
          return lbsa::spec::make_propose(10 * (t + 1) + i);
        },
        round, &tally);

    lincheck_round(
        "2-SA",
        [] { return std::make_unique<lbsa::concurrent::AtomicTwoSa>(); },
        [](int t, int i, std::uint64_t) {
          return lbsa::spec::make_propose(10 * (t + 1) + i);
        },
        round, &tally);

    lincheck_round(
        "spinlock-4-PAC",
        [] {
          return std::make_unique<lbsa::concurrent::SpinlockSpecObject>(
              std::make_shared<lbsa::spec::PacType>(4));
        },
        [](int t, int i, std::uint64_t r) {
          const std::int64_t label = ((t + static_cast<int>(r)) % 4) + 1;
          return (i % 2 == 0)
                     ? lbsa::spec::make_propose_labeled(100 + t, label)
                     : lbsa::spec::make_decide_labeled(label);
        },
        round, &tally);

    lincheck_round(
        "O'-from-base",
        [] {
          return std::make_unique<lbsa::core::OPrimeFromBaseObject>(4, 3);
        },
        [](int t, int i, std::uint64_t) {
          return lbsa::spec::make_propose_k(100 + t,
                                            1 + (t + i) % 3);
        },
        round, &tally);

    lincheck_round(
        "test&set",
        [] { return std::make_unique<lbsa::concurrent::AtomicTestAndSet>(); },
        [](int, int, std::uint64_t) { return lbsa::spec::make_test_and_set(); },
        round, &tally);

    // A fuzzing slice over the protocol suite.
    {
      std::vector<lbsa::Value> inputs{100, 101, 102, 103, 104, 105};
      auto protocol =
          std::make_shared<lbsa::protocols::DacFromPacProtocol>(inputs);
      lbsa::modelcheck::FuzzOptions options;
      options.runs = 20;
      options.seed = round;
      const auto report =
          lbsa::modelcheck::fuzz_dac(protocol, 0, inputs, options);
      tally.fuzz_runs += report.runs_executed;
      if (!report.ok()) {
        ++tally.violations;
        std::fprintf(stderr, "VIOLATION [fuzz dac6] %s\n",
                     report.violations.front().property.c_str());
      }
    }
    {
      std::vector<lbsa::Value> inputs{0, 1, 1, 0};
      auto protocol =
          std::make_shared<lbsa::protocols::BenOrProtocol>(inputs, 40);
      lbsa::modelcheck::FuzzOptions options;
      options.runs = 10;
      options.seed = round * 77;
      const auto report = lbsa::modelcheck::fuzz_k_agreement(
          protocol, 1, inputs, options);
      tally.fuzz_runs += report.runs_executed;
      if (!report.ok()) {
        ++tally.violations;
        std::fprintf(stderr, "VIOLATION [fuzz ben-or] %s\n",
                     report.violations.front().property.c_str());
      }
    }
  }

  std::printf("soak done: %llu lincheck rounds, %llu fuzz runs, "
              "%llu violation(s)\n",
              static_cast<unsigned long long>(tally.lincheck_rounds),
              static_cast<unsigned long long>(tally.fuzz_runs),
              static_cast<unsigned long long>(tally.violations));

  lbsa::obs::RunReport run_report;
  run_report.task = "soak";
  run_report.params = {{"seconds", std::to_string(seconds)}};
  {
    lbsa::obs::JsonWriter w;
    w.begin_object();
    w.key("rounds");
    w.value_uint(round);
    w.key("lincheck_rounds");
    w.value_uint(tally.lincheck_rounds);
    w.key("fuzz_runs");
    w.value_uint(tally.fuzz_runs);
    w.key("violations");
    w.value_uint(tally.violations);
    w.end_object();
    run_report.sections.emplace_back("soak", std::move(w).str());
  }
  if (const lbsa::Status s = obs_cli.finish(&run_report); !s.is_ok()) {
    std::fprintf(stderr, "%s\n", s.to_string().c_str());
    return 1;
  }
  return tally.violations == 0 ? 0 : 1;
}
