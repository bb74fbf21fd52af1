// The observability determinism contract (docs/observability.md): for a
// deterministic workload, every Stability::kStable metric total and every
// phase/task trace-event count is byte-identical across thread counts and
// engines. PR 1 made the parallel explorer's *graph* bit-identical to the
// serial one; this suite pins down that the instrumentation layered on top
// in this PR preserves that guarantee.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "modelcheck/checkpoint.h"
#include "modelcheck/corpus.h"
#include "modelcheck/explorer.h"
#include "modelcheck/fuzz.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lbsa::obs {
namespace {

struct RunObservation {
  std::string stable_metrics;   // MetricsSnapshot::stable_json()
  std::size_t phase_events = 0;  // one per BFS level / shrink round / ...
  std::size_t task_events = 0;   // one per explore()/fuzz run
};

// Runs `workload` with both sinks attached and global state freshly zeroed,
// then captures the comparison string and deterministic event counts.
template <typename Workload>
RunObservation observe(Workload workload) {
  Registry::global().reset_values();
  Tracer::global().reset();
  set_metrics_enabled(true);
  set_tracing_enabled(true);
  workload();
  set_metrics_enabled(false);
  set_tracing_enabled(false);
  RunObservation obs;
  obs.stable_metrics = Registry::global().snapshot().stable_json();
  obs.phase_events = Tracer::global().event_count(kCatPhase);
  obs.task_events = Tracer::global().event_count(kCatTask);
  return obs;
}

TEST(ObsDeterminism, ExplorerStableMetricsIdenticalAcrossThreadCounts) {
#if defined(LBSA_OBS_DISABLED)
  GTEST_SKIP() << "metrics are compiled out under LBSA_OBS_DISABLED";
#endif
  auto task = modelcheck::make_named_task("dac3");
  ASSERT_TRUE(task.is_ok());
  modelcheck::Explorer explorer(task.value().protocol);

  RunObservation baseline;
  for (int threads : {1, 2, 8}) {
    const RunObservation obs = observe([&] {
      modelcheck::ExploreOptions options;
      options.threads = threads;
      auto graph = explorer.explore(options);
      ASSERT_TRUE(graph.is_ok()) << graph.status().to_string();
    });
    if (threads == 1) {
      baseline = obs;
      EXPECT_NE(obs.stable_metrics.find("explore.nodes"), std::string::npos);
      EXPECT_GT(obs.phase_events, 0u) << "one phase span per BFS level";
      EXPECT_EQ(obs.task_events, 1u) << "one task span per explore()";
    } else {
      EXPECT_EQ(obs.stable_metrics, baseline.stable_metrics)
          << "threads=" << threads;
      EXPECT_EQ(obs.phase_events, baseline.phase_events)
          << "threads=" << threads;
      EXPECT_EQ(obs.task_events, baseline.task_events)
          << "threads=" << threads;
    }
  }
}

// explore.levels is the deepest node's depth plus one and explore.max_depth
// that depth, on a complete run, on one stopped after three levels (its
// frontier is present), and on that run's checkpoint resumed to the end.
TEST(ObsDeterminism, ExplorerLevelMetricsReadTheDeepestNode) {
#if defined(LBSA_OBS_DISABLED)
  GTEST_SKIP() << "metrics are compiled out under LBSA_OBS_DISABLED";
#endif
  auto task = modelcheck::make_named_task("dac3");
  ASSERT_TRUE(task.is_ok());
  modelcheck::Explorer explorer(task.value().protocol);
  using LevelsAndDepth = std::pair<std::uint64_t, std::int64_t>;
  auto levels_and_depth = [&](const modelcheck::ExploreOptions& options) {
    observe([&] { ASSERT_TRUE(explorer.explore(options).is_ok()); });
    LevelsAndDepth out;
    const MetricsSnapshot snap = Registry::global().snapshot();
    for (const auto& row : snap.counters) {
      if (row.name == "explore.levels") out.first = row.value;
    }
    for (const auto& row : snap.gauges) {
      if (row.name == "explore.max_depth") out.second = row.value;
    }
    return out;
  };
  EXPECT_EQ(levels_and_depth({}), LevelsAndDepth(10, 9));

  modelcheck::ExploreOptions partial;
  partial.max_levels = 3;
  partial.checkpoint_path = ::testing::TempDir() + "/obs_levels.ckpt";
  EXPECT_EQ(levels_and_depth(partial), LevelsAndDepth(4, 3));
  auto checkpoint =
      modelcheck::read_explore_checkpoint(partial.checkpoint_path);
  ASSERT_TRUE(checkpoint.is_ok()) << checkpoint.status().to_string();
  modelcheck::ExploreOptions resumed;
  resumed.resume = &checkpoint.value();
  EXPECT_EQ(levels_and_depth(resumed), LevelsAndDepth(10, 9));
  std::remove(partial.checkpoint_path.c_str());
}

TEST(ObsDeterminism, SerialAndParallelEnginesAgreeOnStableMetrics) {
  auto task = modelcheck::make_named_task("strawdac3");
  ASSERT_TRUE(task.is_ok());
  modelcheck::Explorer explorer(task.value().protocol);

  std::vector<RunObservation> runs;
  for (const auto engine : {modelcheck::ExploreEngine::kSerial,
                            modelcheck::ExploreEngine::kParallel}) {
    runs.push_back(observe([&] {
      modelcheck::ExploreOptions options;
      options.engine = engine;
      options.threads = engine == modelcheck::ExploreEngine::kParallel ? 4 : 1;
      auto graph = explorer.explore(options);
      ASSERT_TRUE(graph.is_ok()) << graph.status().to_string();
    }));
  }
  EXPECT_EQ(runs[0].stable_metrics, runs[1].stable_metrics);
  EXPECT_EQ(runs[0].phase_events, runs[1].phase_events);
  EXPECT_EQ(runs[0].task_events, runs[1].task_events);
}

TEST(ObsDeterminism, BlindFuzzStableMetricsIdenticalAcrossThreadCounts) {
#if defined(LBSA_OBS_DISABLED)
  GTEST_SKIP() << "metrics are compiled out under LBSA_OBS_DISABLED";
#endif
  auto task = modelcheck::make_named_task("strawdac3");
  ASSERT_TRUE(task.is_ok());

  RunObservation baseline;
  for (int threads : {1, 4}) {
    const RunObservation obs = observe([&] {
      modelcheck::FuzzOptions options;
      options.runs = 200;
      options.seed = 7;
      options.threads = threads;
      (void)modelcheck::fuzz_named_task(task.value(), options);
    });
    if (threads == 1) {
      baseline = obs;
      EXPECT_NE(obs.stable_metrics.find("fuzz.runs_executed"),
                std::string::npos);
    } else {
      // The report-derived counters (and the shrink instrumentation riding
      // on the deterministic findings) must match; live execution tallies
      // are volatile and deliberately excluded from this string.
      EXPECT_EQ(obs.stable_metrics, baseline.stable_metrics)
          << "threads=" << threads;
      EXPECT_EQ(obs.phase_events, baseline.phase_events)
          << "one shrink-round span per ddmin round, same findings";
      EXPECT_EQ(obs.task_events, baseline.task_events);
    }
  }
}

// Regression: a parallel worker's "explore.worker" span used to close only
// after the level-end barrier, so it also covered the wait for the level's
// slowest worker and every worker looked busy for the whole level. Each
// worker's i-th span must start and end inside the i-th lane-0
// "explore.level" span: it opens after the level-start barrier and closes
// before the worker arrives at the level-end barrier.
TEST(ExplorerTrace, ParallelWorkerSpansLieInsideTheirLevel) {
#if defined(LBSA_OBS_DISABLED)
  GTEST_SKIP() << "spans are compiled out under LBSA_OBS_DISABLED";
#endif
  auto task = modelcheck::make_named_task("dac5");
  ASSERT_TRUE(task.is_ok());
  constexpr int kThreads = 4;
  Tracer::global().reset();
  set_tracing_enabled(true);
  modelcheck::ExploreOptions options;
  options.engine = modelcheck::ExploreEngine::kParallel;
  options.threads = kThreads;
  auto graph = modelcheck::Explorer(task.value().protocol).explore(options);
  set_tracing_enabled(false);
  ASSERT_TRUE(graph.is_ok()) << graph.status().to_string();

  auto by_start = [](const TraceEvent& a, const TraceEvent& b) {
    return a.ts_us < b.ts_us;
  };
  std::vector<TraceEvent> levels;
  std::map<int, std::vector<TraceEvent>> workers;  // by lane
  for (TraceEvent& event : Tracer::global().snapshot()) {
    if (event.name == "explore.level" && event.lane == 0) {
      levels.push_back(std::move(event));
    } else if (event.name == "explore.worker") {
      workers[event.lane].push_back(std::move(event));
    }
  }
  Tracer::global().reset();
  std::sort(levels.begin(), levels.end(), by_start);
  ASSERT_EQ(levels.size(), graph.value().levels_completed());
  ASSERT_EQ(workers.size(), static_cast<std::size_t>(kThreads));
  for (auto& [lane, spans] : workers) {
    SCOPED_TRACE("lane " + std::to_string(lane));
    ASSERT_EQ(spans.size(), levels.size());
    std::sort(spans.begin(), spans.end(), by_start);
    for (std::size_t i = 0; i < levels.size(); ++i) {
      const TraceEvent& level = levels[i];
      const TraceEvent& worker = spans[i];
      EXPECT_GE(worker.ts_us, level.ts_us) << "level " << i;
      EXPECT_LE(worker.ts_us + worker.dur_us, level.ts_us + level.dur_us)
          << "level " << i << ": worker span outlives its level";
    }
  }
}

// kAuto pools only levels of at least 1,024 nodes, which keeps narrow
// explorations (every hierarchy-sweep cell) at serial cost: dac4-sym, as
// the sweep runs it, starts no worker at all, while on dac5 each of the 4
// workers records one span per wide level, inside that level's span.
TEST(ExplorerTrace, AutoPoolsOnlyWideLevels) {
#if defined(LBSA_OBS_DISABLED)
  GTEST_SKIP() << "spans are compiled out under LBSA_OBS_DISABLED";
#endif
  constexpr std::int64_t kPoolMinLevel = 1024;
  constexpr int kThreads = 4;
  for (const char* name : {"dac4-sym", "dac5"}) {
    SCOPED_TRACE(name);
    auto task = modelcheck::make_named_task(name);
    ASSERT_TRUE(task.is_ok());
    Tracer::global().reset();
    set_tracing_enabled(true);
    modelcheck::ExploreOptions options;
    options.engine = modelcheck::ExploreEngine::kAuto;
    options.threads = kThreads;
    options.reduction = modelcheck::Reduction::kSymmetry;
    auto graph = modelcheck::Explorer(task.value().protocol).explore(options);
    set_tracing_enabled(false);
    ASSERT_TRUE(graph.is_ok()) << graph.status().to_string();

    std::vector<TraceEvent> wide_levels;
    std::vector<TraceEvent> workers;
    for (TraceEvent& event : Tracer::global().snapshot()) {
      if (event.name == "explore.level" && event.lane == 0) {
        for (const auto& [key, value] : event.args) {
          if (key == "nodes" && value >= kPoolMinLevel) {
            wide_levels.push_back(event);
          }
        }
      } else if (event.name == "explore.worker") {
        workers.push_back(std::move(event));
      }
    }
    Tracer::global().reset();
    const bool narrow = std::string(name) == "dac4-sym";
    EXPECT_EQ(wide_levels.empty(), narrow);
    EXPECT_EQ(graph.value().engine_used(),
              narrow ? modelcheck::ExploreEngine::kSerial
                     : modelcheck::ExploreEngine::kParallel);
    EXPECT_EQ(workers.size(), kThreads * wide_levels.size());
    for (const TraceEvent& worker : workers) {
      EXPECT_TRUE(std::any_of(
          wide_levels.begin(), wide_levels.end(), [&](const TraceEvent& level) {
            return worker.ts_us >= level.ts_us &&
                   worker.ts_us + worker.dur_us <= level.ts_us + level.dur_us;
          }))
          << "worker span on lane " << worker.lane << " outside a wide level";
    }
  }
}

// The erased build records nothing: with both sinks on, a pooled dac5
// exploration, a 2-thread blind campaign and a coverage campaign leave the
// registry and the tracer as they found them. Under LBSA_OBS_DISABLED every
// instrumentation site is an LBSA_OBS_* macro that compiles to nothing,
// the explorer's and the fuzzer's worker spans and the fuzzer's mutation
// counters included, and lanes are named only under a recording span.
TEST(ObsDisabled, ExplorerAndFuzzerRecordNothing) {
#if !defined(LBSA_OBS_DISABLED)
  GTEST_SKIP() << "checks the build that defines LBSA_OBS_DISABLED";
#endif
  set_metrics_enabled(true);
  set_tracing_enabled(true);
  const std::string before_metrics = Registry::global().snapshot().to_json();
  const std::size_t before_events = Tracer::global().event_count();
  const std::string before_trace = Tracer::global().to_chrome_json();

  auto dac5 = modelcheck::make_named_task("dac5");
  ASSERT_TRUE(dac5.is_ok());
  modelcheck::ExploreOptions pooled;
  pooled.engine = modelcheck::ExploreEngine::kParallel;
  pooled.threads = 4;
  EXPECT_TRUE(
      modelcheck::Explorer(dac5.value().protocol).explore(pooled).is_ok());
  auto dac3 = modelcheck::make_named_task("dac3");
  ASSERT_TRUE(dac3.is_ok());
  modelcheck::FuzzOptions blind;
  blind.runs = 200;
  blind.seed = 7;
  blind.threads = 2;
  (void)modelcheck::fuzz_named_task(dac3.value(), blind);
  modelcheck::FuzzOptions coverage = blind;
  coverage.coverage_guided = true;
  coverage.threads = 1;
  const modelcheck::FuzzReport report =
      modelcheck::fuzz_named_task(dac3.value(), coverage);
  EXPECT_GT(report.mutated_runs, 0u);

  set_metrics_enabled(false);
  set_tracing_enabled(false);
  EXPECT_EQ(Registry::global().snapshot().to_json(), before_metrics)
      << "erased sites must not register metrics";
  EXPECT_EQ(Tracer::global().event_count(), before_events)
      << "erased sites must not record spans";
  EXPECT_EQ(Tracer::global().to_chrome_json(), before_trace)
      << "erased sites must not name lanes";
}

}  // namespace
}  // namespace lbsa::obs
