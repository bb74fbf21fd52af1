// Corpus replay: every checked-in fuzz finding under tests/corpus/ must
// keep violating its recorded property under strict replay, forever. A
// failure here means a protocol or simulator change silently altered the
// semantics a past counterexample depended on.
//
// LBSA_CORPUS_DIR is injected by tests/modelcheck/CMakeLists.txt and points
// at the source tree's tests/corpus directory.
#include "modelcheck/corpus.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "modelcheck/fuzz.h"
#include "sim/trace.h"

namespace lbsa::modelcheck {
namespace {

std::vector<std::filesystem::path> corpus_files() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(LBSA_CORPUS_DIR)) {
    if (entry.path().extension() == ".corpus") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(Corpus, HasAtLeastFiveCases) {
  EXPECT_GE(corpus_files().size(), 5u)
      << "regression corpus shrank below the documented minimum "
         "(tests/corpus/, see docs/checking.md)";
}

TEST(Corpus, EveryCaseParsesReplaysAndViolates) {
  for (const auto& path : corpus_files()) {
    SCOPED_TRACE(path.filename().string());
    auto parsed = parse_corpus_case(slurp(path));
    ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
    EXPECT_FALSE(parsed.value().detail.empty())
        << "corpus files should record provenance in '# detail:'";
    const Status replayed = replay_corpus_case(parsed.value());
    EXPECT_TRUE(replayed.is_ok()) << replayed.to_string();
  }
}

TEST(Corpus, CasesAreShrunk) {
  // Checked-in schedules are minimized findings; keep them small enough to
  // eyeball (the shrinker invariant allows <= 32 steps in the worst case).
  for (const auto& path : corpus_files()) {
    SCOPED_TRACE(path.filename().string());
    auto parsed = parse_corpus_case(slurp(path));
    ASSERT_TRUE(parsed.is_ok());
    EXPECT_LE(parsed.value().schedule.size(), 32u);
  }
}

TEST(Corpus, SerializationRoundTrips) {
  for (const auto& path : corpus_files()) {
    SCOPED_TRACE(path.filename().string());
    auto parsed = parse_corpus_case(slurp(path));
    ASSERT_TRUE(parsed.is_ok());
    auto reparsed = parse_corpus_case(corpus_case_to_string(parsed.value()));
    ASSERT_TRUE(reparsed.is_ok()) << reparsed.status().to_string();
    EXPECT_EQ(reparsed.value().task, parsed.value().task);
    EXPECT_EQ(reparsed.value().property, parsed.value().property);
    EXPECT_EQ(reparsed.value().schedule, parsed.value().schedule);
  }
}

TEST(Corpus, ParserRejectsHeaderlessAndEmptyCases) {
  EXPECT_FALSE(parse_corpus_case("0\n1\n").is_ok());  // no headers
  EXPECT_FALSE(
      parse_corpus_case("# task: strawdac3\n0\n").is_ok());  // no property
  EXPECT_FALSE(
      parse_corpus_case("# task: strawdac3\n# property: agreement\n")
          .is_ok());  // no schedule
  // A seed header must be wholly a number.
  for (const char* seed : {"banana", "12abc"}) {
    SCOPED_TRACE(seed);
    const auto parsed = parse_corpus_case(
        std::string("# task: strawdac3\n# property: agreement\n# seed: ") +
        seed + "\n0\n");
    ASSERT_FALSE(parsed.is_ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(Corpus, ReplayRejectsWrongProperty) {
  // A schedule that replays cleanly must not satisfy a violation claim.
  CorpusCase c;
  c.task = "dac3";
  c.property = "agreement";
  c.schedule = {{0, 0, false}, {1, 0, false}};
  const Status status = replay_corpus_case(c);
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(Corpus, ReplayRejectsUnknownTask) {
  CorpusCase c;
  c.task = "no-such-task";
  c.property = "agreement";
  c.schedule = {{0, 0, false}};
  EXPECT_EQ(replay_corpus_case(c).code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace lbsa::modelcheck
