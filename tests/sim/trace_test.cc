#include "sim/trace.h"

#include <gtest/gtest.h>

#include "protocols/dac_from_pac.h"
#include "protocols/one_shot.h"

namespace lbsa::sim {
namespace {

using protocols::DacFromPacProtocol;
using protocols::make_ksa_via_two_sa;

TEST(Trace, RoundTripsARecordedRun) {
  auto protocol =
      std::make_shared<DacFromPacProtocol>(std::vector<Value>{10, 20, 30});
  Simulation original(protocol);
  RandomAdversary adversary(7);
  original.run(&adversary, {.max_steps = 100'000});

  const std::string text =
      schedule_to_string(*protocol, original.history());
  auto parsed = parse_schedule(text);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  ASSERT_EQ(parsed.value().size(), original.history().size());

  auto replayed = replay_schedule(protocol, parsed.value());
  ASSERT_TRUE(replayed.is_ok()) << replayed.status().to_string();
  EXPECT_EQ(replayed.value().config(), original.config());
}

TEST(Trace, RoundTripsNondeterministicOutcomes) {
  auto protocol = make_ksa_via_two_sa({10, 20, 30});
  Simulation original(protocol);
  RandomAdversary adversary(3);
  original.run(&adversary, {.max_steps = 1'000});

  auto parsed =
      parse_schedule(schedule_to_string(*protocol, original.history()));
  ASSERT_TRUE(parsed.is_ok());
  auto replayed = replay_schedule(protocol, parsed.value());
  ASSERT_TRUE(replayed.is_ok());
  EXPECT_EQ(replayed.value().config(), original.config());
  EXPECT_EQ(replayed.value().distinct_decisions(),
            original.distinct_decisions());
}

TEST(Trace, ParsesCommentsAndBlanks) {
  auto parsed = parse_schedule(
      "# a comment\n\n0\n  1:2  # inline comment\n\n2:0\n");
  ASSERT_TRUE(parsed.is_ok());
  ASSERT_EQ(parsed.value().size(), 3u);
  EXPECT_EQ(parsed.value()[0].pid, 0);
  EXPECT_EQ(parsed.value()[1].pid, 1);
  EXPECT_EQ(parsed.value()[1].outcome, 2);
  EXPECT_EQ(parsed.value()[2].pid, 2);
  EXPECT_EQ(parsed.value()[2].outcome, 0);
}

TEST(Trace, RejectsMalformedLines) {
  EXPECT_FALSE(parse_schedule("zero").is_ok());
  EXPECT_FALSE(parse_schedule("1;2").is_ok());
  EXPECT_FALSE(parse_schedule("1:").is_ok());
  EXPECT_FALSE(parse_schedule("1:x").is_ok());
  EXPECT_FALSE(parse_schedule("-1").is_ok());
}

TEST(Trace, ReplayRejectsInvalidSchedules) {
  auto protocol =
      std::make_shared<DacFromPacProtocol>(std::vector<Value>{10, 20});
  // pid out of range.
  EXPECT_FALSE(replay_schedule(protocol, {{5, 0}}).is_ok());
  // outcome out of range (the first step is deterministic).
  EXPECT_FALSE(replay_schedule(protocol, {{0, 3}}).is_ok());
  // stepping a decided process: run p1 to completion first (solo p1
  // decides after 4 steps: propose, decide, local decide), then step it.
  auto bad = replay_schedule(protocol, {{1, 0}, {1, 0}, {1, 0}, {1, 0}});
  EXPECT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kFailedPrecondition);
}

// A negative outcome is out of range too: it fails with a Status instead of
// reaching the step core's range check (which aborts the process).
TEST(Trace, ReplayRejectsNegativeOutcome) {
  auto protocol =
      std::make_shared<DacFromPacProtocol>(std::vector<Value>{100, 200, 300});
  for (int outcome : {-1, -2}) {
    auto bad = replay_schedule(protocol, {{0, outcome}});
    ASSERT_FALSE(bad.is_ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(bad.status().message().find("outcome choice out of range"),
              std::string::npos)
        << bad.status().to_string();
  }
  // After a valid step, the bad one is still reported by its index.
  auto later = replay_schedule(protocol, {{0, 0}, {1, -1}});
  ASSERT_FALSE(later.is_ok());
  EXPECT_NE(later.status().message().find("replay step 1"), std::string::npos);
}

TEST(Trace, ParsesCrashEvents) {
  auto parsed = parse_schedule("!2\n0\n!1  # crash p1\n1:3\n");
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  ASSERT_EQ(parsed.value().size(), 4u);
  EXPECT_EQ(parsed.value()[0],
            (ScriptedAdversary::Choice{2, 0, true}));
  EXPECT_EQ(parsed.value()[1],
            (ScriptedAdversary::Choice{0, 0, false}));
  EXPECT_EQ(parsed.value()[2],
            (ScriptedAdversary::Choice{1, 0, true}));
  EXPECT_EQ(parsed.value()[3],
            (ScriptedAdversary::Choice{1, 3, false}));
}

TEST(Trace, RejectsMalformedCrashEvents) {
  EXPECT_FALSE(parse_schedule("!").is_ok());
  EXPECT_FALSE(parse_schedule("!x").is_ok());
  EXPECT_FALSE(parse_schedule("!-1").is_ok());
  // A crash event carries no outcome.
  EXPECT_FALSE(parse_schedule("!2:1").is_ok());
}

TEST(Trace, CanonicalFormRoundTripsRandomizedSchedules) {
  // Property test: for randomized schedules (including crash events and
  // nondeterministic outcomes), format -> parse -> format is the identity
  // on text, and parse recovers the exact choice list.
  Xoshiro256 rng(2026);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<ScriptedAdversary::Choice> schedule;
    const int length = 1 + static_cast<int>(rng.next_below(40));
    for (int i = 0; i < length; ++i) {
      ScriptedAdversary::Choice choice;
      choice.pid = static_cast<int>(rng.next_below(6));
      if (rng.next_below(8) == 0) {
        choice.crash = true;
      } else {
        choice.outcome = static_cast<int>(rng.next_below(3));
      }
      schedule.push_back(choice);
    }
    const std::string text = schedule_to_string(schedule);
    auto parsed = parse_schedule(text);
    ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string() << "\n"
                                << text;
    EXPECT_EQ(parsed.value(), schedule);
    EXPECT_EQ(schedule_to_string(parsed.value()), text);
  }
}

TEST(Trace, ReplayAppliesCrashEvents) {
  auto protocol =
      std::make_shared<DacFromPacProtocol>(std::vector<Value>{10, 20, 30});
  // Reference run: crash p0 up front, then p1 solo until it decides.
  Simulation reference(protocol);
  reference.crash(0);
  std::vector<ScriptedAdversary::Choice> schedule = {{0, 0, true}};
  while (!reference.config().procs[1].decided()) {
    reference.step(1);
    schedule.push_back({1, 0, false});
  }
  auto replayed = replay_schedule(protocol, schedule);
  ASSERT_TRUE(replayed.is_ok()) << replayed.status().to_string();
  EXPECT_TRUE(replayed.value().config().procs[0].crashed());
  EXPECT_TRUE(replayed.value().config().procs[1].decided());
  EXPECT_EQ(replayed.value().config(), reference.config());
  // The crash is a schedule event, not a step: history excludes it.
  EXPECT_EQ(replayed.value().history().size(), schedule.size() - 1);
}

TEST(Trace, ReplayRejectsOutOfRangeCrashes) {
  auto protocol =
      std::make_shared<DacFromPacProtocol>(std::vector<Value>{10, 20});
  EXPECT_FALSE(replay_schedule(protocol, {{7, 0, true}}).is_ok());
  EXPECT_FALSE(replay_schedule(protocol, {{-1, 0, true}}).is_ok());
}

TEST(Trace, SerializedFormIsCommented) {
  auto protocol =
      std::make_shared<DacFromPacProtocol>(std::vector<Value>{10, 20});
  Simulation simulation(protocol);
  simulation.step(0);
  const std::string text =
      schedule_to_string(*protocol, simulation.history());
  EXPECT_NE(text.find("# schedule for"), std::string::npos);
  EXPECT_NE(text.find("PROPOSE"), std::string::npos);
}

}  // namespace
}  // namespace lbsa::sim
