#include "obs/report.h"

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace lbsa::obs {
namespace {

RunReport sample_report() {
  RunReport report;
  report.tool = "unit_test";
  report.task = "dac3";
  report.params = {{"threads", "8"}, {"engine", "\"parallel\""}};
  report.wall_seconds = 0.125;
  set_metrics_enabled(true);
  Registry registry;
  registry.counter("t.nodes")->add(42);
  registry.counter("t.probes", Stability::kVolatile)->add(7);
  report.metrics = registry.snapshot();
  set_metrics_enabled(false);
  JsonWriter w;
  w.begin_object();
  w.key("nodes");
  w.value_uint(42);
  w.end_object();
  report.sections.emplace_back("explorer", std::move(w).str());
  return report;
}

TEST(RunReportSchema, SerializedReportValidates) {
  const std::string json = sample_report().to_json();
  const Status s = validate_run_report_json(json);
  EXPECT_TRUE(s.is_ok()) << s.to_string() << "\n" << json;
}

TEST(RunReportSchema, CarriesVersionToolAndMetrics) {
  auto parsed = parse_json(sample_report().to_json());
  ASSERT_TRUE(parsed.is_ok());
  const JsonValue& root = parsed.value();
  EXPECT_EQ(root.find("run_report_version")->int_value,
            RunReport::kSchemaVersion);
  EXPECT_EQ(root.find("tool")->string_value, "unit_test");
  const JsonValue* metrics = root.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->find("counters")->find("t.nodes")->int_value, 42);
  // Volatile metrics live under metrics.volatile, not among the stable rows.
  EXPECT_EQ(metrics->find("counters")->find("t.probes"), nullptr);
  EXPECT_EQ(
      metrics->find("volatile")->find("counters")->find("t.probes")->int_value,
      7);
  EXPECT_EQ(root.find("sections")->find("explorer")->find("nodes")->int_value,
            42);
}

TEST(RunReportSchema, RejectsMalformedDocuments) {
  EXPECT_FALSE(validate_run_report_json("not json").is_ok());
  EXPECT_FALSE(validate_run_report_json("[]").is_ok());
  EXPECT_FALSE(validate_run_report_json("{}").is_ok());
  // Wrong version.
  RunReport report = sample_report();
  std::string json = report.to_json();
  const std::string needle = "\"run_report_version\":" +
                             std::to_string(RunReport::kSchemaVersion);
  ASSERT_NE(json.find(needle), std::string::npos);
  json.replace(json.find(needle), needle.size(), "\"run_report_version\":99");
  EXPECT_FALSE(validate_run_report_json(json).is_ok());
  // Empty tool name.
  report.tool = "";
  EXPECT_FALSE(validate_run_report_json(report.to_json()).is_ok());
}

TEST(RunReportSchema, WriteRunReportRefusesInvalidAndWritesValid) {
  RunReport bad = sample_report();
  bad.tool = "";
  EXPECT_FALSE(
      write_run_report(bad, ::testing::TempDir() + "/lbsa_obs_invalid.json")
          .is_ok());

  const std::string path = ::testing::TempDir() + "/lbsa_obs_report.json";
  const Status s = write_run_report(sample_report(), path);
  ASSERT_TRUE(s.is_ok()) << s.to_string();
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_TRUE(validate_run_report_json(buffer.str()).is_ok());
  EXPECT_EQ(buffer.str().back(), '\n');
  std::remove(path.c_str());
}

// Completeness guard: the explorer section's full-graph estimate (and the
// ratio derived from it) only counts visited orbits, so a report carrying
// either field next to truncated/interrupted = true is a producer bug.
// Regression: write_text_file staged every write at path + ".tmp", so
// writers of one path truncated or renamed each other's staging file and
// some of their writes failed. Each write now stages under its own name:
// every write succeeds, and the file holds one writer's complete text.
TEST(WriteTextFile, ConcurrentWritersNeverTearTheFile) {
  const std::string path = ::testing::TempDir() + "/concurrent-text.json";
  constexpr int kWriters = 8;
  constexpr int kWritesEach = 25;
  constexpr std::size_t kSize = 64 * 1024;
  std::vector<Status> failures(kWriters, Status::ok());
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      // One character per writer, so a torn file cannot pass as whole.
      const std::string text(kSize, static_cast<char>('a' + w));
      for (int i = 0; i < kWritesEach; ++i) {
        const Status s = write_text_file(path, text);
        if (!s.is_ok()) {
          failures[w] = s;
          return;
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  for (int w = 0; w < kWriters; ++w) {
    EXPECT_TRUE(failures[w].is_ok())
        << "writer " << w << ": " << failures[w].to_string();
  }
  std::ifstream in(path, std::ios::binary);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  ASSERT_EQ(text.size(), kSize);
  EXPECT_EQ(text.find_first_not_of(text[0]), std::string::npos);
  std::remove(path.c_str());
}

TEST(RunReportSchema, RejectsReductionRatioOnIncompleteGraphs) {
  auto with_explorer_section = [](const std::string& section_json) {
    RunReport report = sample_report();
    report.sections.clear();
    report.sections.emplace_back("explorer", section_json);
    return report.to_json();
  };
  // Complete graph: ratio fine.
  EXPECT_TRUE(validate_run_report_json(
                  with_explorer_section("{\"truncated\":false,"
                                        "\"interrupted\":false,"
                                        "\"nodes_full_estimate\":256,"
                                        "\"reduction_ratio\":1.8}"))
                  .is_ok());
  // Truncated or interrupted: both completeness-only fields rejected.
  for (const char* flag : {"truncated", "interrupted"}) {
    for (const char* field :
         {"\"reduction_ratio\":1.8", "\"nodes_full_estimate\":256"}) {
      const std::string json = with_explorer_section(
          "{\"" + std::string(flag) + "\":true," + field + "}");
      const Status s = validate_run_report_json(json);
      EXPECT_FALSE(s.is_ok()) << json;
      EXPECT_NE(s.message().find("incomplete"), std::string::npos)
          << s.to_string();
    }
    // The flags alone (without the fields) stay valid.
    EXPECT_TRUE(validate_run_report_json(with_explorer_section(
                    "{\"" + std::string(flag) + "\":true,\"nodes\":79}"))
                    .is_ok());
  }
}

TEST(BenchArtifactSchema, AcceptsMergedArtifactAndRejectsBadRows) {
  const std::string report_json = sample_report().to_json();
  const std::string good = "{\"lbsa_bench_schema\":1,"
                           "\"benchmarks\":[{\"task\":\"dac3\",\"nodes\":441,"
                           "\"nodes_per_sec\":382412}],"
                           "\"run_reports\":{\"explorer_cli:dac3:t1\":" +
                           report_json + "}}";
  const Status s = validate_bench_artifact_json(good);
  EXPECT_TRUE(s.is_ok()) << s.to_string();

  // A top-level section that tools/run_report.sh does not write: stale or
  // hand-edited.
  std::string stale = good;
  stale.insert(stale.size() - 1, ",\"raw_dump\":{}");
  const Status unknown = validate_bench_artifact_json(stale);
  EXPECT_FALSE(unknown.is_ok());
  EXPECT_NE(unknown.message().find("raw_dump"), std::string::npos)
      << unknown.to_string();

  // Every row carries positive integer nodes and nodes_per_sec; a 0 rate is
  // what an empty parse of explorer_cli's elapsed line turns into.
  for (const char* row :
       {"{\"task\":\"dac3\",\"nodes\":441}",
        "{\"task\":\"dac3\",\"nodes_per_sec\":382412}",
        "{\"task\":\"dac3\",\"nodes\":441,\"nodes_per_sec\":0}",
        "{\"task\":\"dac3\",\"nodes\":0,\"nodes_per_sec\":382412}",
        "{\"task\":\"dac3\",\"nodes\":441,\"nodes_per_sec\":-5}",
        "{\"task\":\"dac3\",\"nodes\":441,\"nodes_per_sec\":1.5}"}) {
    EXPECT_FALSE(validate_bench_artifact_json(
                     std::string("{\"lbsa_bench_schema\":1,\"benchmarks\":[") +
                     row + "],\"run_reports\":{}}")
                     .is_ok())
        << row;
  }

  EXPECT_FALSE(validate_bench_artifact_json("{}").is_ok());
  EXPECT_FALSE(validate_bench_artifact_json(
                   "{\"lbsa_bench_schema\":2,\"benchmarks\":[],"
                   "\"run_reports\":{}}")
                   .is_ok());
  // Benchmark row without a task name.
  EXPECT_FALSE(validate_bench_artifact_json(
                   "{\"lbsa_bench_schema\":1,\"benchmarks\":[{}],"
                   "\"run_reports\":{}}")
                   .is_ok());
  // Embedded run report must itself validate.
  EXPECT_FALSE(validate_bench_artifact_json(
                   "{\"lbsa_bench_schema\":1,\"benchmarks\":[],"
                   "\"run_reports\":{\"x\":{}}}")
                   .is_ok());
}

TEST(BenchArtifactSchema, ChecksReductionSweepRows) {
  // The reduction sweep's row shape (tools/run_report.sh).
  const Status good = validate_bench_artifact_json(
      "{\"lbsa_bench_schema\":1,\"benchmarks\":["
      "{\"task\":\"dac4-sym\",\"threads\":1,\"reduction\":\"both\","
      "\"nodes\":394,\"nodes_per_sec\":228805,\"reduction_ratio\":4.27}],"
      "\"run_reports\":{}}");
  EXPECT_TRUE(good.is_ok()) << good.to_string();
  // Unknown reduction mode.
  EXPECT_FALSE(validate_bench_artifact_json(
                   "{\"lbsa_bench_schema\":1,\"benchmarks\":["
                   "{\"task\":\"dac4-sym\",\"reduction\":\"sym\","
                   "\"nodes\":394,\"nodes_per_sec\":228805}],"
                   "\"run_reports\":{}}")
                   .is_ok());
  // Measurement fields, when present, must be numbers.
  EXPECT_FALSE(validate_bench_artifact_json(
                   "{\"lbsa_bench_schema\":1,\"benchmarks\":["
                   "{\"task\":\"dac4-sym\",\"reduction_ratio\":\"4.27\","
                   "\"nodes\":394,\"nodes_per_sec\":228805}],"
                   "\"run_reports\":{}}")
                   .is_ok());
  EXPECT_FALSE(validate_bench_artifact_json(
                   "{\"lbsa_bench_schema\":1,\"benchmarks\":["
                   "{\"task\":\"dac4-sym\",\"nodes\":394,"
                   "\"nodes_per_sec\":true}],"
                   "\"run_reports\":{}}")
                   .is_ok());
}

TEST(BenchArtifactSchema, ChecksSymCostRows) {
  // The symmetry-cost pair's row shape (tools/run_report.sh): serial
  // wall-clock with reduction off vs on, tagged by which side the row is.
  const Status good = validate_bench_artifact_json(
      "{\"lbsa_bench_schema\":1,\"benchmarks\":["
      "{\"task\":\"dac5-sym\",\"sym_cost\":\"none\",\"threads\":1,"
      "\"nodes\":19221,\"nodes_per_sec\":250000},"
      "{\"task\":\"dac5-sym\",\"sym_cost\":\"symmetry\",\"threads\":1,"
      "\"nodes\":1513,\"nodes_per_sec\":190000}],"
      "\"run_reports\":{}}");
  EXPECT_TRUE(good.is_ok()) << good.to_string();
  // sym_cost only names the two sides of the pair.
  EXPECT_FALSE(validate_bench_artifact_json(
                   "{\"lbsa_bench_schema\":1,\"benchmarks\":["
                   "{\"task\":\"dac5\",\"sym_cost\":\"por\",\"nodes\":19221,"
                   "\"nodes_per_sec\":250000}],"
                   "\"run_reports\":{}}")
                   .is_ok());
  EXPECT_FALSE(validate_bench_artifact_json(
                   "{\"lbsa_bench_schema\":1,\"benchmarks\":["
                   "{\"task\":\"dac5\",\"sym_cost\":1,\"nodes\":19221,"
                   "\"nodes_per_sec\":250000}],"
                   "\"run_reports\":{}}")
                   .is_ok());
}

}  // namespace
}  // namespace lbsa::obs
