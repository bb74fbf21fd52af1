// Cross-engine equivalence: on complete explorations the parallel engine,
// at every thread count, under every reduction mode, with the orbit cache
// on or off, produces the ConfigGraph bit-identical to the serial
// reference. A max_levels-bounded run must stop on the exact serial
// prefix, and a checkpoint written by either engine must resume on the
// other.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "graph_testing.h"
#include "modelcheck/checkpoint.h"
#include "modelcheck/corpus.h"
#include "modelcheck/explorer.h"
#include "sim/symmetry.h"

namespace lbsa::modelcheck {
namespace {

constexpr Reduction kAllModes[] = {Reduction::kNone, Reduction::kSymmetry,
                                   Reduction::kPor, Reduction::kBoth};

// Small corpus tasks with distinct shapes: symmetric DACs (non-trivial
// orbit), a consensus tree, a violation generator with cycles.
const char* kTasks[] = {"dac3-sym", "dac4-sym", "consensus4-sym",
                        "strawdac3"};

NamedTask get_task(const std::string& name) {
  auto task = make_named_task(name);
  EXPECT_TRUE(task.is_ok()) << task.status().to_string();
  return task.value();
}

ConfigGraph explore_or_die(const NamedTask& task, const ExploreOptions& opts) {
  Explorer explorer(task.protocol);
  auto graph = explorer.explore(opts);
  EXPECT_TRUE(graph.is_ok()) << graph.status().to_string();
  return std::move(graph).value();
}

TEST(EngineEquivalence, AllEnginesBitIdenticalAcrossReductionsAndThreads) {
  // The orbit cache is declared a pure accelerator: the cache-off column is
  // the reference and every cache-on run must reproduce it bit for bit.
  // Cache-on runs pass an explicit pool — explore() only auto-creates one
  // for groups of 64+, and these corpus tasks are all smaller, so relying
  // on canon_cache_bytes alone would quietly test nothing.
  auto fresh_pool = [] {
    return std::make_shared<sim::CanonCachePool>(
        ExploreOptions{}.canon_cache_bytes);
  };
  const bool kCacheModes[] = {false, true};
  for (const char* name : kTasks) {
    SCOPED_TRACE(name);
    const NamedTask task = get_task(name);
    for (Reduction reduction : kAllModes) {
      SCOPED_TRACE(reduction_name(reduction));
      ExploreOptions base;
      base.reduction = reduction;
      base.engine = ExploreEngine::kSerial;
      base.canon_cache_bytes = 0;  // uncached serial reference
      const ConfigGraph serial = explore_or_die(task, base);
      EXPECT_EQ(serial.engine_used(), ExploreEngine::kSerial);
      ExploreOptions cached = base;
      cached.canon_cache_bytes = ExploreOptions{}.canon_cache_bytes;
      cached.canon_cache_pool = fresh_pool();
      expect_same_graph(serial, explore_or_die(task, cached));
      for (int threads : {1, 2, 8}) {
        for (bool use_cache : kCacheModes) {
          SCOPED_TRACE("parallel t" + std::to_string(threads) +
                       (use_cache ? " cache" : " nocache"));
          ExploreOptions opts;
          opts.reduction = reduction;
          opts.engine = ExploreEngine::kParallel;
          opts.threads = threads;
          if (use_cache) opts.canon_cache_pool = fresh_pool();
          const ConfigGraph graph = explore_or_die(task, opts);
          EXPECT_EQ(graph.engine_used(), ExploreEngine::kParallel);
          expect_same_graph(serial, graph);
        }
      }
    }
  }
}

TEST(EngineEquivalence, SharedWarmCachePoolKeepsGraphsIdentical) {
  // The hierarchy-sweep pattern: one pool reused across runs, so later
  // runs answer mostly from a warm cache — and must still reproduce the
  // uncached reference exactly, serial and parallel alike.
  const NamedTask task = get_task("dac4-sym");
  ExploreOptions base;
  base.reduction = Reduction::kSymmetry;
  base.engine = ExploreEngine::kSerial;
  base.canon_cache_bytes = 0;
  const ConfigGraph reference = explore_or_die(task, base);
  auto pool = std::make_shared<sim::CanonCachePool>(std::size_t{1} << 20);
  for (int run = 0; run < 3; ++run) {
    SCOPED_TRACE(run);
    ExploreOptions opts;
    opts.reduction = Reduction::kSymmetry;
    opts.engine = run == 2 ? ExploreEngine::kParallel : ExploreEngine::kSerial;
    opts.threads = run == 2 ? 4 : 1;
    opts.canon_cache_pool = pool;
    expect_same_graph(reference, explore_or_die(task, opts));
  }
}

TEST(EngineEquivalence, ParallelMaxLevelsMatchesSerialPrefix) {
  // A depth-bounded parallel run must land on the same graph as the serial
  // engine interrupted at the same boundary: same prefix, same pending
  // frontier, levels_completed == the bound.
  const NamedTask task = get_task("dac3-sym");
  for (Reduction reduction : kAllModes) {
    SCOPED_TRACE(reduction_name(reduction));
    for (std::uint32_t levels : {1u, 2u, 4u}) {
      SCOPED_TRACE(levels);
      ExploreOptions serial_opts;
      serial_opts.reduction = reduction;
      serial_opts.engine = ExploreEngine::kSerial;
      serial_opts.max_levels = levels;
      const ConfigGraph serial = explore_or_die(task, serial_opts);
      ASSERT_TRUE(serial.interrupted());
      for (int threads : {1, 2, 8}) {
        SCOPED_TRACE(threads);
        ExploreOptions opts;
        opts.reduction = reduction;
        opts.engine = ExploreEngine::kParallel;
        opts.threads = threads;
        opts.max_levels = levels;
        const ConfigGraph parallel = explore_or_die(task, opts);
        EXPECT_TRUE(parallel.interrupted());
        EXPECT_EQ(parallel.levels_completed(), levels);
        expect_same_graph(serial, parallel);
      }
    }
  }
}

TEST(EngineEquivalence, ResumeHopsBetweenSerialAndParallel) {
  // serial (2 levels) -> parallel (2 more) -> serial (to completion): every
  // hop checkpoints, every hop resumes the previous engine's file, and the
  // final graph is bit-identical to one uninterrupted serial run.
  const NamedTask task = get_task("dac4-sym");
  for (Reduction reduction : {Reduction::kNone, Reduction::kBoth}) {
    SCOPED_TRACE(reduction_name(reduction));
    ExploreOptions base;
    base.reduction = reduction;
    base.engine = ExploreEngine::kSerial;
    const ConfigGraph uninterrupted = explore_or_die(task, base);

    const std::string path1 = testing::TempDir() + "/hop1.ckpt";
    const std::string path2 = testing::TempDir() + "/hop2.ckpt";

    ExploreOptions hop1;
    hop1.reduction = reduction;
    hop1.engine = ExploreEngine::kSerial;
    hop1.max_levels = 2;
    hop1.checkpoint_path = path1;
    hop1.checkpoint_label = task.name;
    const ConfigGraph partial1 = explore_or_die(task, hop1);
    ASSERT_TRUE(partial1.interrupted());
    auto cp1 = read_explore_checkpoint(path1);
    ASSERT_TRUE(cp1.is_ok()) << cp1.status().to_string();

    ExploreOptions hop2;
    hop2.reduction = reduction;
    hop2.engine = ExploreEngine::kParallel;
    hop2.threads = 4;
    hop2.max_levels = 2;
    hop2.checkpoint_path = path2;
    hop2.checkpoint_label = task.name;
    hop2.resume = &cp1.value();
    const ConfigGraph partial2 = explore_or_die(task, hop2);
    ASSERT_TRUE(partial2.interrupted());
    EXPECT_EQ(partial2.levels_completed(), 4u);
    auto cp2 = read_explore_checkpoint(path2);
    ASSERT_TRUE(cp2.is_ok()) << cp2.status().to_string();

    ExploreOptions hop3;
    hop3.reduction = reduction;
    hop3.engine = ExploreEngine::kSerial;
    hop3.resume = &cp2.value();
    const ConfigGraph final_graph = explore_or_die(task, hop3);
    EXPECT_FALSE(final_graph.interrupted());
    expect_same_graph(uninterrupted, final_graph);
  }
}

TEST(EngineEquivalence, ParseAndNames) {
  EXPECT_STREQ(engine_name(ExploreEngine::kAuto), "auto");
  EXPECT_STREQ(engine_name(ExploreEngine::kSerial), "serial");
  EXPECT_STREQ(engine_name(ExploreEngine::kParallel), "parallel");
  for (const char* name : {"auto", "serial", "parallel"}) {
    const auto parsed = parse_engine(name);
    ASSERT_TRUE(parsed.is_ok()) << name;
    EXPECT_STREQ(engine_name(parsed.value()), name);
  }
  for (const char* name : {"workstealing", "stealing"}) {
    EXPECT_EQ(parse_engine(name).status().code(),
              StatusCode::kInvalidArgument)
        << name;
  }
}

}  // namespace
}  // namespace lbsa::modelcheck
