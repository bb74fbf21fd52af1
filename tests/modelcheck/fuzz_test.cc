// Schedule-fuzzer tests: correct protocols stay clean at sizes beyond the
// exhaustive checker's comfort; broken protocols are caught quickly, and
// every finding replays deterministically through sim/trace.h.
#include "modelcheck/fuzz.h"

#include <gtest/gtest.h>

#include "modelcheck/checkpoint.h"
#include "protocols/ben_or.h"
#include "protocols/dac_from_pac.h"
#include "protocols/group_ksa.h"
#include "protocols/straw_dac.h"
#include "sim/trace.h"

namespace lbsa::modelcheck {
namespace {

using protocols::BenOrProtocol;
using protocols::DacFromPacProtocol;
using protocols::GroupKsaProtocol;
using protocols::StrawDacFallbackProtocol;

std::vector<Value> iota_inputs(int n) {
  std::vector<Value> inputs;
  for (int i = 0; i < n; ++i) inputs.push_back(100 + i);
  return inputs;
}

TEST(Fuzz, AlgorithmTwoCleanAtLargeSizes) {
  // 8-process DAC — far beyond exhaustive reach; 300 fuzzed schedules must
  // find no safety violation.
  const auto inputs = iota_inputs(8);
  auto protocol = std::make_shared<DacFromPacProtocol>(inputs);
  FuzzOptions options;
  options.runs = 300;
  options.max_steps_per_run = 50'000;
  const FuzzReport report = fuzz_dac(protocol, 0, inputs, options);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.runs_executed, 300u);
  EXPECT_GT(report.runs_terminated, 0u);
}

TEST(Fuzz, GroupKsaCleanAtLargeSizes) {
  const auto inputs = iota_inputs(12);  // 3 groups of 4
  auto protocol = std::make_shared<GroupKsaProtocol>(3, 4, inputs);
  FuzzOptions options;
  options.runs = 300;
  const FuzzReport report = fuzz_k_agreement(protocol, 3, inputs, options);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.runs_terminated, report.runs_executed);
}

TEST(Fuzz, BenOrSafetyCleanWithFairCoins) {
  const std::vector<Value> inputs{0, 1, 0, 1, 1};
  auto protocol = std::make_shared<BenOrProtocol>(inputs, 40);
  FuzzOptions options;
  options.runs = 200;
  const FuzzReport report = fuzz_k_agreement(protocol, 1, inputs, options);
  EXPECT_TRUE(report.ok());
}

TEST(Fuzz, StrawDacViolationFoundAndReplayable) {
  // 5-process straw-man: fuzzing must find the agreement violation, and the
  // reported schedule must replay to a violating configuration.
  const auto inputs = iota_inputs(5);
  auto protocol = std::make_shared<StrawDacFallbackProtocol>(inputs);
  FuzzOptions options;
  options.runs = 2000;
  const FuzzReport report = fuzz_dac(protocol, 0, inputs, options);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.violates("agreement"));

  const FuzzViolation& finding = report.violations.front();
  auto schedule = sim::parse_schedule(finding.schedule);
  ASSERT_TRUE(schedule.is_ok());
  auto replayed = sim::replay_schedule(protocol, schedule.value());
  ASSERT_TRUE(replayed.is_ok()) << replayed.status().to_string();
  EXPECT_GE(replayed.value().distinct_decisions().size(), 2u);
}

TEST(Fuzz, ViolationBudgetStopsEarly) {
  const auto inputs = iota_inputs(3);
  auto protocol = std::make_shared<StrawDacFallbackProtocol>(inputs);
  FuzzOptions options;
  options.runs = 100'000;
  options.max_violations = 2;
  const FuzzReport report = fuzz_dac(protocol, 0, inputs, options);
  EXPECT_EQ(report.violations.size(), 2u);
  EXPECT_LT(report.runs_executed, 100'000u);
}

TEST(Fuzz, DeterministicForSeed) {
  const auto inputs = iota_inputs(3);
  auto protocol = std::make_shared<StrawDacFallbackProtocol>(inputs);
  FuzzOptions options;
  options.runs = 500;
  options.seed = 42;
  const FuzzReport a = fuzz_dac(protocol, 0, inputs, options);
  const FuzzReport b = fuzz_dac(protocol, 0, inputs, options);
  ASSERT_EQ(a.violations.size(), b.violations.size());
  for (size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(a.violations[i].schedule, b.violations[i].schedule);
    EXPECT_EQ(a.violations[i].run_seed, b.violations[i].run_seed);
  }
}

// Every observable field of two reports must agree — "byte-identical"
// in the sense that serializing either gives the same bytes.
void expect_identical_reports(const FuzzReport& a, const FuzzReport& b) {
  EXPECT_EQ(a.runs_executed, b.runs_executed);
  EXPECT_EQ(a.runs_terminated, b.runs_terminated);
  EXPECT_EQ(a.distinct_fingerprints, b.distinct_fingerprints);
  EXPECT_EQ(a.interesting_runs, b.interesting_runs);
  EXPECT_EQ(a.mutated_runs, b.mutated_runs);
  EXPECT_EQ(a.shrink_replays, b.shrink_replays);
  ASSERT_EQ(a.violations.size(), b.violations.size());
  for (size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(a.violations[i].property, b.violations[i].property);
    EXPECT_EQ(a.violations[i].detail, b.violations[i].detail);
    EXPECT_EQ(a.violations[i].run_seed, b.violations[i].run_seed);
    EXPECT_EQ(a.violations[i].schedule, b.violations[i].schedule);
    EXPECT_EQ(a.violations[i].shrunk_schedule, b.violations[i].shrunk_schedule);
    EXPECT_EQ(a.violations[i].raw_steps, b.violations[i].raw_steps);
    EXPECT_EQ(a.violations[i].shrunk_steps, b.violations[i].shrunk_steps);
  }
}

TEST(Fuzz, ReportIdenticalAcrossThreadCounts) {
  // The blind fuzzer's report is a pure function of FuzzOptions::seed:
  // runs are pre-seeded, merged in run order, and the early-stop cutoff is
  // computed deterministically — so 1, 2, and 4 workers must agree exactly,
  // violations and all.
  const auto inputs = iota_inputs(4);
  auto protocol = std::make_shared<StrawDacFallbackProtocol>(inputs);
  FuzzOptions options;
  options.runs = 400;
  options.seed = 9;
  options.max_violations = 3;
  options.threads = 1;
  const FuzzReport serial = fuzz_dac(protocol, 0, inputs, options);
  ASSERT_FALSE(serial.ok());  // exercise the early-stop path too
  for (int threads : {2, 4}) {
    SCOPED_TRACE(threads);
    options.threads = threads;
    const FuzzReport parallel = fuzz_dac(protocol, 0, inputs, options);
    expect_identical_reports(serial, parallel);
  }
}

TEST(Fuzz, CoverageModeDeterministicForSeed) {
  const auto inputs = iota_inputs(4);
  auto protocol = std::make_shared<StrawDacFallbackProtocol>(inputs);
  FuzzOptions options;
  options.runs = 300;
  options.seed = 5;
  options.coverage_guided = true;
  const FuzzReport a = fuzz_dac(protocol, 0, inputs, options);
  const FuzzReport b = fuzz_dac(protocol, 0, inputs, options);
  expect_identical_reports(a, b);
  EXPECT_GT(a.mutated_runs, 0u);
}

TEST(Fuzz, CoverageGuidanceBeatsBlindOnFingerprints) {
  // The point of coverage feedback: with the same seed and run budget,
  // breeding from interesting schedules reaches strictly more distinct
  // configurations than blind generation. 3-process DAC is where blind
  // plateaus (fresh random runs mostly revisit known configurations)
  // while mutation keeps reaching rare corners; at seed 17 the margin is
  // wide (~428 vs ~338 at 250 runs), so this is not a coin flip.
  const auto inputs = iota_inputs(3);
  auto protocol = std::make_shared<DacFromPacProtocol>(inputs);
  FuzzOptions options;
  options.runs = 250;
  options.seed = 17;
  const FuzzReport blind = fuzz_dac(protocol, 0, inputs, options);
  options.coverage_guided = true;
  const FuzzReport coverage = fuzz_dac(protocol, 0, inputs, options);
  EXPECT_EQ(blind.runs_executed, coverage.runs_executed);
  EXPECT_GT(coverage.distinct_fingerprints, blind.distinct_fingerprints);
}

TEST(Fuzz, ViolationsCarryRawAndShrunkSchedules) {
  const auto inputs = iota_inputs(4);
  auto protocol = std::make_shared<StrawDacFallbackProtocol>(inputs);
  FuzzOptions options;
  options.runs = 3000;
  options.max_violations = 1;
  const FuzzReport report = fuzz_dac(protocol, 0, inputs, options);
  ASSERT_FALSE(report.ok());
  const FuzzViolation& v = report.violations.front();
  EXPECT_GT(v.raw_steps, 0u);
  EXPECT_GT(v.shrunk_steps, 0u);
  EXPECT_LE(v.shrunk_steps, v.raw_steps);
  // Both schedules replay to the same violated property.
  for (const std::string& text : {v.schedule, v.shrunk_schedule}) {
    auto schedule = sim::parse_schedule(text);
    ASSERT_TRUE(schedule.is_ok());
    auto replayed = sim::replay_schedule(protocol, schedule.value());
    ASSERT_TRUE(replayed.is_ok()) << replayed.status().to_string();
    EXPECT_GE(replayed.value().distinct_decisions().size(), 2u);
  }
}

// Regression: the blind engine used to silently IGNORE the run-boundary
// lifecycle knobs (its claim order is thread-scheduling dependent, so it
// has no resumable boundary) — a blind campaign launched with a
// checkpoint_path ran to completion with no checkpoint and no error.
// External callers now validate first and must get INVALID_ARGUMENT naming
// the offending knob.
TEST(Fuzz, ValidateOptionsRejectsBlindLifecycleKnobs) {
  FuzzOptions blind;
  blind.coverage_guided = false;

  {
    FuzzOptions o = blind;
    o.checkpoint_path = "/tmp/whatever.ckpt";
    const Status s = validate_fuzz_options(o);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.to_string();
    EXPECT_NE(s.message().find("checkpoint_path"), std::string::npos)
        << s.to_string();
  }
  {
    FuzzCheckpoint cp;
    FuzzOptions o = blind;
    o.resume = &cp;
    const Status s = validate_fuzz_options(o);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.to_string();
    EXPECT_NE(s.message().find("resume"), std::string::npos) << s.to_string();
  }
  {
    FuzzOptions o = blind;
    o.stop_after_runs = 10;
    const Status s = validate_fuzz_options(o);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.to_string();
    EXPECT_NE(s.message().find("stop_after_runs"), std::string::npos)
        << s.to_string();
  }

  // The same knobs are fine on the coverage engine, and a blind campaign
  // without them is fine too.
  FuzzOptions coverage;
  coverage.coverage_guided = true;
  coverage.checkpoint_path = "/tmp/whatever.ckpt";
  coverage.stop_after_runs = 10;
  EXPECT_TRUE(validate_fuzz_options(coverage).is_ok());
  EXPECT_TRUE(validate_fuzz_options(blind).is_ok());
}

TEST(Fuzz, ShrinkingCanBeDisabled) {
  const auto inputs = iota_inputs(3);
  auto protocol = std::make_shared<StrawDacFallbackProtocol>(inputs);
  FuzzOptions options;
  options.runs = 2000;
  options.max_violations = 1;
  options.shrink_violations = false;
  const FuzzReport report = fuzz_dac(protocol, 0, inputs, options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].schedule, report.violations[0].shrunk_schedule);
  EXPECT_EQ(report.shrink_replays, 0u);
}

}  // namespace
}  // namespace lbsa::modelcheck
