// Heartbeat telemetry (docs/observability.md, "Heartbeats"): deterministic
// sampler behavior under an injected fake clock, the stream/digest
// validators' accept and reject sets, checkpoint/resume splice continuity,
// and the engines × thread-counts field-set stability contract.
#include "obs/heartbeat.h"

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "modelcheck/corpus.h"
#include "modelcheck/explorer.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace lbsa::obs {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// Top-level key set of one heartbeat line — the "field set" the issue pins
// as stable across engines and thread counts.
std::set<std::string> keys_of(const std::string& line) {
  auto parsed = parse_json(line);
  EXPECT_TRUE(parsed.is_ok()) << line;
  std::set<std::string> keys;
  for (const auto& member : parsed.value().members) {
    keys.insert(member.first);
  }
  return keys;
}

// A fake monotonic clock the sampler reads through its injected hook.
struct FakeClock {
  std::uint64_t now_ms = 0;
  std::function<std::uint64_t()> fn() {
    return [this] { return now_ms; };
  }
};

HeartbeatOptions test_options(const std::string& path, FakeClock* clock,
                              const std::string& run_id = "deadbeef00000000") {
  HeartbeatOptions options;
  options.path = path;
  options.tool = "heartbeat_test";
  options.task = "dac3";
  options.run_id = run_id;
  options.interval_ms = 1000;
  options.clock_ms = clock->fn();
  return options;
}

TEST(DeriveRunId, StableAndInputSensitive) {
  const std::string a = derive_run_id("explorer_cli", "dac3", "both", 1000);
  EXPECT_EQ(a.size(), 16u);
  EXPECT_EQ(a.find_first_not_of("0123456789abcdef"), std::string::npos);
  EXPECT_EQ(a, derive_run_id("explorer_cli", "dac3", "both", 1000))
      << "same inputs must derive the same id (resume continuity)";
  EXPECT_NE(a, derive_run_id("explorer_cli", "dac4", "both", 1000));
  EXPECT_NE(a, derive_run_id("explorer_cli", "dac3", "none", 1000));
  EXPECT_NE(a, derive_run_id("explorer_cli", "dac3", "both", 2000));
  EXPECT_NE(a, derive_run_id("fuzz_shrink_cli", "dac3", "both", 1000));
}

// Regression: two concurrent runs of the same (tool, task, mode, budget)
// used to derive the SAME run_id, so their heartbeat lines interleaved into
// one stream namespace and validate_heartbeat_stream conflated them
// (constant-run_id check, seq collisions). The caller-supplied nonce —
// `explorer_cli --run-nonce` — must separate them, while staying stable
// across checkpoint/resume of the same logical run.
TEST(DeriveRunId, NonceSeparatesConcurrentIdenticalRuns) {
  const std::string bare = derive_run_id("explorer_cli", "dac3", "both", 1000);
  const std::string r1 =
      derive_run_id("explorer_cli", "dac3", "both", 1000, "run-1");
  const std::string r2 =
      derive_run_id("explorer_cli", "dac3", "both", 1000, "run-2");

  EXPECT_NE(r1, r2) << "concurrent identical runs must not share an id";
  EXPECT_NE(r1, bare);
  // Resume continuity: the same logical run re-derives the same id.
  EXPECT_EQ(r1, derive_run_id("explorer_cli", "dac3", "both", 1000, "run-1"));
  // Shape invariants hold with a nonce too.
  EXPECT_EQ(r1.size(), 16u);
  EXPECT_EQ(r1.find_first_not_of("0123456789abcdef"), std::string::npos);
  // An empty nonce is not hashed: pre-nonce callers' ids are unchanged, so
  // historical streams still validate against freshly derived ids.
  EXPECT_EQ(bare, derive_run_id("explorer_cli", "dac3", "both", 1000, ""));
}

TEST(Progress, RaiseNeverLowers) {
  std::atomic<std::uint64_t> cell{10};
  Progress::raise(cell, 5);
  EXPECT_EQ(cell.load(), 10u) << "stale smaller value must not un-publish";
  Progress::raise(cell, 25);
  EXPECT_EQ(cell.load(), 25u);
}

TEST(Progress, ConfigureWorkersClampsAndClearsBusyOnly) {
  Progress p;
  p.configure_workers(2);
  ASSERT_NE(p.worker(0), nullptr);
  p.worker(0)->busy.store(1);
  p.worker(0)->expanded.store(7);
  p.configure_workers(kProgressMaxWorkers + 50);
  EXPECT_EQ(p.worker_count(), kProgressMaxWorkers);
  EXPECT_EQ(p.worker(0)->busy.load(), 0u) << "busy flags clear on reconfig";
  EXPECT_EQ(p.worker(0)->expanded.load(), 7u)
      << "cumulative per-slot counters survive reconfiguration";
  p.configure_workers(-3);
  EXPECT_EQ(p.worker_count(), 0);
  EXPECT_EQ(p.worker(0), nullptr);
}

TEST(HeartbeatSampler, DeterministicTicksUnderFakeClock) {
  const std::string path = temp_path("hb_deterministic.jsonl");
  std::remove(path.c_str());
  FakeClock clock;
  Progress& progress = Progress::global();
  progress.reset();

  HeartbeatSampler sampler(test_options(path, &clock));
  ASSERT_TRUE(sampler.open().is_ok());
  EXPECT_TRUE(heartbeat_enabled()) << "open() arms the engines' publish path";

  progress.nodes_total.store(100);
  progress.transitions_total.store(250);
  progress.levels_completed.store(3);
  progress.frontier_size.store(40);
  clock.now_ms = 1000;
  sampler.tick();
  progress.nodes_total.store(300);
  progress.frontier_size.store(20);
  clock.now_ms = 2000;
  sampler.tick();
  clock.now_ms = 3000;
  ASSERT_TRUE(sampler.stop().is_ok());
  EXPECT_FALSE(heartbeat_enabled());

  const std::vector<std::string> lines = lines_of(read_file(path));
  ASSERT_EQ(lines.size(), 3u) << "two ticks plus the final line";
  const Status s = validate_heartbeat_stream(read_file(path));
  EXPECT_TRUE(s.is_ok()) << s.to_string();

  auto first = parse_json(lines[0]);
  ASSERT_TRUE(first.is_ok());
  EXPECT_EQ(first.value().find("seq")->int_value, 0);
  EXPECT_EQ(first.value().find("uptime_ms")->int_value, 1000);
  EXPECT_EQ(first.value().find("nodes_total")->int_value, 100);
  EXPECT_FALSE(first.value().find("final")->bool_value);
  auto second = parse_json(lines[1]);
  ASSERT_TRUE(second.is_ok());
  // 200 nodes in the 1000ms window between ticks.
  EXPECT_EQ(second.value().find("nodes_per_sec")->number_value, 200.0);
  // Frontier drained 40 -> 20 in 1s: 20/s drain, 20 left -> eta 1s.
  EXPECT_EQ(second.value().find("eta_s")->number_value, 1.0);
  auto final_line = parse_json(lines[2]);
  ASSERT_TRUE(final_line.is_ok());
  EXPECT_TRUE(final_line.value().find("final")->bool_value);
  EXPECT_EQ(final_line.value().find("seq")->int_value, 2);

  // Every line carries the same top-level field set.
  EXPECT_EQ(keys_of(lines[0]), keys_of(lines[1]));
  EXPECT_EQ(keys_of(lines[0]), keys_of(lines[2]));
  // The captured timeseries excludes the final line.
  EXPECT_EQ(sampler.ticks().size(), 2u);
  EXPECT_EQ(sampler.ticks()[1].nodes_total, 300u);

  progress.reset();
  std::remove(path.c_str());
}

TEST(HeartbeatSampler, ResumeAppendsAContinuation) {
  const std::string path = temp_path("hb_resume.jsonl");
  std::remove(path.c_str());
  Progress& progress = Progress::global();
  progress.reset();

  FakeClock clock;
  {
    HeartbeatSampler first(test_options(path, &clock));
    ASSERT_TRUE(first.open().is_ok());
    progress.nodes_total.store(50);
    clock.now_ms = 1000;
    first.tick();
    ASSERT_TRUE(first.stop().is_ok());
  }
  // Simulate the resumed process: counters re-seeded from the checkpoint.
  progress.reset();
  progress.nodes_total.store(50);
  {
    FakeClock clock2;
    HeartbeatSampler resumed(test_options(path, &clock2));
    ASSERT_TRUE(resumed.open().is_ok())
        << "same run_id must be allowed to append";
    progress.nodes_total.store(80);
    clock2.now_ms = 500;
    resumed.tick();
    ASSERT_TRUE(resumed.stop().is_ok());
  }

  const std::string text = read_file(path);
  const std::vector<std::string> lines = lines_of(text);
  ASSERT_EQ(lines.size(), 4u);
  const Status s = validate_heartbeat_stream(text);
  EXPECT_TRUE(s.is_ok()) << "splice must validate as one stream: "
                         << s.to_string();
  auto third = parse_json(lines[2]);
  ASSERT_TRUE(third.is_ok());
  EXPECT_EQ(third.value().find("seq")->int_value, 2)
      << "resumed sampler continues numbering after the final line";

  // A different run_id must be refused — appending would corrupt the stream.
  FakeClock clock3;
  HeartbeatSampler imposter(
      test_options(path, &clock3, "feedface00000000"));
  const Status refused = imposter.open();
  EXPECT_FALSE(refused.is_ok());
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition)
      << refused.to_string();

  progress.reset();
  std::remove(path.c_str());
}

TEST(HeartbeatValidator, RejectsBrokenStreams) {
  FakeClock clock;
  const std::string path = temp_path("hb_validator.jsonl");
  std::remove(path.c_str());
  Progress& progress = Progress::global();
  progress.reset();
  {
    HeartbeatSampler sampler(test_options(path, &clock));
    ASSERT_TRUE(sampler.open().is_ok());
    progress.nodes_total.store(10);
    clock.now_ms = 1000;
    sampler.tick();
    progress.nodes_total.store(20);
    clock.now_ms = 2000;
    sampler.tick();
    ASSERT_TRUE(sampler.stop().is_ok());
  }
  const std::string good = read_file(path);
  ASSERT_TRUE(validate_heartbeat_stream(good).is_ok());

  EXPECT_FALSE(validate_heartbeat_stream("").is_ok()) << "empty stream";
  EXPECT_FALSE(validate_heartbeat_stream("not json\n").is_ok());

  // Out-of-order seq: swap the first two lines.
  std::vector<std::string> lines = lines_of(good);
  ASSERT_GE(lines.size(), 3u);
  {
    const std::string swapped =
        lines[1] + "\n" + lines[0] + "\n" + lines[2] + "\n";
    const Status s = validate_heartbeat_stream(swapped);
    EXPECT_FALSE(s.is_ok());
    EXPECT_NE(s.message().find("seq"), std::string::npos) << s.to_string();
  }
  // Non-monotone cumulative counter.
  {
    std::string broken = good;
    const std::string needle = "\"nodes_total\":20";
    ASSERT_NE(broken.find(needle), std::string::npos);
    broken.replace(broken.find(needle), needle.size(), "\"nodes_total\":5");
    const Status s = validate_heartbeat_stream(broken);
    EXPECT_FALSE(s.is_ok());
    EXPECT_NE(s.message().find("nodes_total"), std::string::npos)
        << s.to_string();
  }
  // run_id changes mid-stream.
  {
    std::string broken = good;
    const std::size_t second_line = broken.find('\n') + 1;
    const std::size_t pos = broken.find("deadbeef00000000", second_line);
    ASSERT_NE(pos, std::string::npos);
    broken.replace(pos, 16, "feedface00000000");
    EXPECT_FALSE(validate_heartbeat_stream(broken).is_ok());
  }
  // Wrong schema version.
  {
    std::string broken = good;
    const std::string needle = "\"heartbeat_version\":1";
    broken.replace(broken.find(needle), needle.size(),
                   "\"heartbeat_version\":9");
    EXPECT_FALSE(validate_heartbeat_stream(broken).is_ok());
  }
  progress.reset();
  std::remove(path.c_str());
}

TEST(HeartbeatValidator, SummaryDigestAcceptAndReject) {
  const std::string good =
      "{\"heartbeat_summary_version\":1,\"run_id\":\"deadbeef00000000\","
      "\"tool\":\"explorer_cli\",\"task\":\"dac3\",\"ticks\":3,"
      "\"first_seq\":0,\"last_seq\":2,\"nodes_total\":441,"
      "\"transitions_total\":1004,\"levels_completed\":10,"
      "\"max_nodes_per_sec\":120.5,\"final_seen\":true}";
  const Status s = validate_heartbeat_summary_json(good);
  EXPECT_TRUE(s.is_ok()) << s.to_string();
  EXPECT_TRUE(validate_heartbeat_file(good).is_ok())
      << "dispatch must route digests to the summary validator";

  EXPECT_FALSE(validate_heartbeat_summary_json("{}").is_ok());
  // Zero ticks — a digest of nothing is meaningless.
  std::string broken = good;
  const std::string needle = "\"ticks\":3";
  broken.replace(broken.find(needle), needle.size(), "\"ticks\":0");
  EXPECT_FALSE(validate_heartbeat_summary_json(broken).is_ok());
  // last_seq < first_seq.
  broken = good;
  const std::string needle2 = "\"last_seq\":2";
  broken.replace(broken.find(needle2), needle2.size(), "\"last_seq\":-1");
  EXPECT_FALSE(validate_heartbeat_summary_json(broken).is_ok());
}

// The acceptance contract: for a fixed task, the heartbeat a run emits has
// the same tick count (driven deterministically here) and the same JSONL
// top-level field set regardless of engine and thread count, and every
// line parses as strict JSON.
TEST(HeartbeatEngines, FieldSetStableAcrossEnginesAndThreads) {
  auto task = modelcheck::make_named_task("dac3");
  ASSERT_TRUE(task.is_ok());
  modelcheck::Explorer explorer(task.value().protocol);

  std::set<std::string> baseline_keys;
  std::size_t baseline_lines = 0;
  for (const auto engine : {modelcheck::ExploreEngine::kSerial,
                            modelcheck::ExploreEngine::kParallel}) {
    for (int threads : {1, 2, 8}) {
      const std::string path = temp_path("hb_engines.jsonl");
      std::remove(path.c_str());
      Progress::global().reset();
      FakeClock clock;
      HeartbeatOptions options = test_options(path, &clock);
      options.task = "dac3";
      HeartbeatSampler sampler(options);
      ASSERT_TRUE(sampler.open().is_ok());

      modelcheck::ExploreOptions explore_options;
      explore_options.engine = engine;
      explore_options.threads = threads;
      auto graph = explorer.explore(explore_options);
      ASSERT_TRUE(graph.is_ok()) << graph.status().to_string();

      clock.now_ms = 1000;
      sampler.tick();  // one deterministic mid-run sample
      clock.now_ms = 2000;
      ASSERT_TRUE(sampler.stop().is_ok());

      const std::string text = read_file(path);
      const Status valid = validate_heartbeat_stream(text);
      ASSERT_TRUE(valid.is_ok())
          << "engine=" << modelcheck::engine_name(engine)
          << " threads=" << threads << ": " << valid.to_string();
      const std::vector<std::string> lines = lines_of(text);
      ASSERT_EQ(lines.size(), 2u) << "tick + final, deterministically";
      for (const std::string& line : lines) {
        auto parsed = parse_json(line);
        ASSERT_TRUE(parsed.is_ok()) << line;
        ASSERT_TRUE(parsed.value().is_object());
      }
      // Engines publish real progress: the explored graph's node count.
      auto tick_line = parse_json(lines[0]);
      ASSERT_TRUE(tick_line.is_ok());
      EXPECT_EQ(
          static_cast<std::uint64_t>(
              tick_line.value().find("nodes_total")->int_value),
          graph.value().nodes().size())
          << "engine=" << modelcheck::engine_name(engine)
          << " threads=" << threads;

      const std::set<std::string> keys = keys_of(lines[0]);
      if (baseline_keys.empty()) {
        baseline_keys = keys;
        baseline_lines = lines.size();
        EXPECT_TRUE(keys.count("run_id"));
        EXPECT_TRUE(keys.count("workers"));
        EXPECT_TRUE(keys.count("eta_s"));
      } else {
        EXPECT_EQ(keys, baseline_keys)
            << "engine=" << modelcheck::engine_name(engine)
            << " threads=" << threads;
        EXPECT_EQ(lines.size(), baseline_lines);
      }
      // Streams from before the per-worker `steals` gauge was dropped keep
      // heartbeat_version 1 and stay valid: unknown keys are ignored.
      if (engine == modelcheck::ExploreEngine::kParallel) {
        std::string older = text;
        const std::string needle = "\"cas_retries\":";
        const std::string steals = "\"steals\":12,";
        for (std::size_t pos = older.find(needle); pos != std::string::npos;
             pos = older.find(needle, pos + steals.size() + needle.size())) {
          older.insert(pos, steals);
        }
        EXPECT_NE(older, text) << "parallel heartbeats carry worker slots";
        EXPECT_TRUE(validate_heartbeat_stream(older).is_ok())
            << "threads=" << threads;
      }
      std::remove(path.c_str());
    }
  }
  Progress::global().reset();
}

}  // namespace
}  // namespace lbsa::obs
