// Committed fuzz-report digests: every registry task fuzzed by both
// engines at two seeds, each report written as text and compared byte for
// byte with tests/modelcheck/fuzz_reports.golden. A change that moves any
// campaign (a different random draw, a lost step count, another shrink)
// shows up here as the first differing row.
//
// The file is not regenerated by a flag. On a mismatch the test prints the
// regenerated file between BEGIN/END marker lines; a change that means to
// move campaigns copies that block over the committed file, and its diff
// names the campaigns that moved.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/hashing.h"
#include "modelcheck/corpus.h"
#include "obs/metrics.h"

namespace lbsa::modelcheck {
namespace {

constexpr std::uint64_t kRuns = 150;
constexpr std::uint64_t kGroupKsaRuns = 1000;
constexpr std::uint64_t kSeeds[] = {1, 7};
constexpr int kBlindThreads = 2;

// Value of a counter in the global registry's snapshot (0 if unregistered).
std::uint64_t counter_value(const std::string& name) {
  for (const auto& row : obs::Registry::global().snapshot().counters) {
    if (row.name == name) return row.value;
  }
  return 0;
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// A schedule's text (one event per line) on one line: events separated by
// spaces.
std::string one_line(std::string schedule) {
  std::replace(schedule.begin(), schedule.end(), '\n', ' ');
  if (!schedule.empty()) schedule.pop_back();  // the last event's newline
  return schedule;
}

std::uint64_t text_digest(const std::string& text) {
  std::vector<std::int64_t> words(text.begin(), text.end());
  return hash_words(words);
}

// One campaign: a row of every FuzzReport field, then one row per
// violation. Coverage rows end with the campaign's sim.steps and
// sim.crashes deltas (the blind engine's counts depend on thread timing).
std::string campaign_rows(const std::string& task_name, bool coverage,
                          std::uint64_t seed) {
  auto task = make_named_task(task_name);
  EXPECT_TRUE(task.is_ok()) << task.status().to_string();
  if (!task.is_ok()) return task_name + " unresolved\n";
  FuzzOptions options;
  options.runs = task_name == "groupksa" ? kGroupKsaRuns : kRuns;
  options.seed = seed;
  options.coverage_guided = coverage;
  options.threads = coverage ? 1 : kBlindThreads;
  const std::uint64_t steps_before = counter_value("sim.steps");
  const std::uint64_t crashes_before = counter_value("sim.crashes");
  const FuzzReport r = fuzz_named_task(task.value(), options);

  std::ostringstream out;
  out << task_name << " " << r.engine << " seed=" << r.seed
      << " runs=" << options.runs << " threads=" << r.threads
      << " executed=" << r.runs_executed
      << " terminated=" << r.runs_terminated
      << " fingerprints=" << r.distinct_fingerprints
      << " interesting=" << r.interesting_runs
      << " mutated=" << r.mutated_runs
      << " shrink_replays=" << r.shrink_replays
      << " interrupted=" << r.interrupted << " checkpoint_error=\""
      << r.checkpoint_error << "\" violations=" << r.violations.size();
#if !defined(LBSA_OBS_DISABLED)
  if (coverage) {
    out << " sim.steps=" << counter_value("sim.steps") - steps_before
        << " sim.crashes=" << counter_value("sim.crashes") - crashes_before;
  }
#else
  (void)steps_before;
  (void)crashes_before;
#endif
  out << "\n";
  for (const FuzzViolation& v : r.violations) {
    out << "  " << v.property << " \"" << v.detail << "\" run_seed="
        << v.run_seed << " raw_steps=" << v.raw_steps
        << " raw_digest=" << hex64(text_digest(v.schedule))
        << " shrunk_steps=" << v.shrunk_steps << " shrunk=["
        << one_line(v.shrunk_schedule) << "]\n";
  }
  return out.str();
}

std::string regenerate() {
  std::string out =
      "# Fuzz-report digests: every registry task x {coverage, blind at 2 "
      "threads} x seeds {1, 7},\n# 150 runs (groupksa 1000). Checked by "
      "tests/modelcheck/fuzz_golden_test.cc.\n";
  for (const std::string& task : named_task_names()) {
    for (bool coverage : {true, false}) {
      for (std::uint64_t seed : kSeeds) {
        out += campaign_rows(task, coverage, seed);
      }
    }
  }
  return out;
}

// The committed text as this build regenerates it: without compiled-in
// metrics the counter fields are cut from every row.
std::string expected_for_this_build(const std::string& committed) {
#if defined(LBSA_OBS_DISABLED)
  std::string out;
  std::istringstream lines(committed);
  for (std::string line; std::getline(lines, line);) {
    const std::size_t at = line.find(" sim.steps=");
    out += line.substr(0, at);
    out += '\n';
  }
  return out;
#else
  return committed;
#endif
}

TEST(FuzzGolden, ReportsMatchCommittedDigests) {
  std::ifstream in(LBSA_FUZZ_GOLDEN, std::ios::binary);
  ASSERT_TRUE(in) << "cannot open " << LBSA_FUZZ_GOLDEN;
  const std::string committed = expected_for_this_build(
      std::string((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>()));

  obs::Registry::global().reset_values();
  obs::set_metrics_enabled(true);
  const std::string actual = regenerate();
  obs::set_metrics_enabled(false);
  if (actual == committed) return;

  std::istringstream want(committed);
  std::istringstream got(actual);
  std::string want_line;
  std::string got_line;
  int line = 0;
  while (true) {
    ++line;
    const bool more_want = static_cast<bool>(std::getline(want, want_line));
    const bool more_got = static_cast<bool>(std::getline(got, got_line));
    if (!more_want) want_line = "<end of file>";
    if (!more_got) got_line = "<end of file>";
    if (want_line != got_line || (!more_want && !more_got)) break;
  }
  ADD_FAILURE() << "fuzz reports differ from " << LBSA_FUZZ_GOLDEN
                << " at line " << line << "\n  committed:   " << want_line
                << "\n  regenerated: " << got_line
                << "\n----- BEGIN regenerated fuzz_reports.golden -----\n"
                << actual
                << "----- END regenerated fuzz_reports.golden -----";
}

}  // namespace
}  // namespace lbsa::modelcheck
