// E10a — cost of the proof machinery itself: state-space growth and
// analysis cost as the instance scales. This is the library's analogue of a
// "simulator performance" section: it tells a user how far the exhaustive
// tools reach.
//
// Series reported:
//   * ModelCheck_Explore/<protocol>/n: reachable-graph construction
//                                      (counter: nodes, transitions);
//   * ModelCheck_Valence/n:            valence fixpoint on the DAC graph;
//   * ModelCheck_SoloOracle/n:         the solo-termination oracle across
//                                      every reachable configuration (the
//                                      dominant cost of check_dac_task).

#include <benchmark/benchmark.h>

#include <memory>

#include "modelcheck/explorer.h"
#include "modelcheck/task_check.h"
#include "modelcheck/fuzz.h"
#include "modelcheck/valence.h"
#include "protocols/dac_from_pac.h"
#include "protocols/one_shot.h"

namespace {

std::vector<lbsa::Value> iota_inputs(int n) {
  std::vector<lbsa::Value> inputs;
  for (int i = 0; i < n; ++i) inputs.push_back(100 + i);
  return inputs;
}

// Exploration benchmarks take (n, threads). threads=1 runs the serial
// reference engine (the baseline every speedup claim is against); threads>1
// runs the parallel engine, whose canonical output is bit-identical, so the
// rows measure the same work. The threads sweep at the headline size is the
// speedup curve tracked across commits (see
// `tools/run_report.sh build BENCH_modelcheck.json --with-bench`).
void ModelCheck_ExploreDac(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  auto protocol =
      std::make_shared<lbsa::protocols::DacFromPacProtocol>(iota_inputs(n));
  std::uint64_t nodes = 0, transitions = 0;
  for (auto _ : state) {
    lbsa::modelcheck::Explorer explorer(protocol);
    auto graph = explorer.explore({.max_nodes = 10'000'000,
                                   .threads = threads});
    if (!graph.is_ok()) {
      state.SkipWithError("budget exceeded");
      return;
    }
    nodes = graph.value().nodes().size();
    transitions = graph.value().transition_count();
  }
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["transitions"] = static_cast<double>(transitions);
  state.counters["nodes_per_sec"] = benchmark::Counter(
      static_cast<double>(nodes) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(ModelCheck_ExploreDac)
    ->ArgNames({"n", "threads"})
    ->ArgsProduct({{2, 3, 4, 5}, {1}})            // serial size sweep
    ->ArgsProduct({{4}, {2, 3, 4, 5, 6, 7, 8}})   // speedup curve at n=4
    ->UseRealTime()  // workers run off the main thread; wall time is the truth
    ->Unit(benchmark::kMillisecond);

// State-space reduction sweep (docs/checking.md, "State-space reduction"):
// the symmetric DAC instance (equal inputs, so the q's form one orbit)
// explored at every Reduction mode. reduction_ratio is
// full-graph-nodes / reduced-nodes; the kBoth row at the headline size is
// the ISSUE's >=3x reduction claim, and time-per-iteration vs the kNone row
// is the corresponding wall-clock speedup.
void ModelCheck_ExploreDacReduced(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  const auto reduction =
      static_cast<lbsa::modelcheck::Reduction>(state.range(2));
  const std::vector<lbsa::Value> inputs(n, 100);  // equal => orbit {q1..}
  auto protocol =
      std::make_shared<lbsa::protocols::DacFromPacProtocol>(inputs);
  std::uint64_t nodes = 0, full = 0;
  for (auto _ : state) {
    lbsa::modelcheck::Explorer explorer(protocol);
    auto graph = explorer.explore({.max_nodes = 10'000'000,
                                   .threads = threads,
                                   .reduction = reduction});
    if (!graph.is_ok()) {
      state.SkipWithError("budget exceeded");
      return;
    }
    nodes = graph.value().nodes().size();
    full = graph.value().full_node_estimate();
  }
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["nodes_per_sec"] = benchmark::Counter(
      static_cast<double>(nodes) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["reduction_ratio"] =
      nodes == 0 ? 1.0
                 : static_cast<double>(full) / static_cast<double>(nodes);
}
BENCHMARK(ModelCheck_ExploreDacReduced)
    ->ArgNames({"n", "threads", "reduction"})
    ->ArgsProduct({{3, 4}, {1}, {0, 1, 2, 3}})  // serial, all modes
    ->ArgsProduct({{4}, {8}, {0, 3}})           // parallel, none vs both
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void ModelCheck_ExploreConsensus(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  auto protocol = lbsa::protocols::make_consensus_via_n_consensus(
      iota_inputs(n));
  std::uint64_t nodes = 0;
  for (auto _ : state) {
    lbsa::modelcheck::Explorer explorer(protocol);
    auto graph = explorer.explore({.max_nodes = 10'000'000,
                                   .threads = threads});
    if (!graph.is_ok()) {
      state.SkipWithError("budget exceeded");
      return;
    }
    nodes = graph.value().nodes().size();
  }
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["nodes_per_sec"] = benchmark::Counter(
      static_cast<double>(nodes) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(ModelCheck_ExploreConsensus)
    ->ArgNames({"n", "threads"})
    ->ArgsProduct({{2, 4, 6, 8}, {1}})            // serial size sweep
    ->ArgsProduct({{6}, {2, 3, 4, 5, 6, 7, 8}})   // speedup curve at n=6
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void ModelCheck_Valence(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto protocol =
      std::make_shared<lbsa::protocols::DacFromPacProtocol>(iota_inputs(n));
  lbsa::modelcheck::Explorer explorer(protocol);
  auto graph = explorer.explore({.max_nodes = 10'000'000});
  if (!graph.is_ok()) {
    state.SkipWithError("budget exceeded");
    return;
  }
  for (auto _ : state) {
    lbsa::modelcheck::ValenceAnalyzer analyzer(graph.value());
    benchmark::DoNotOptimize(analyzer.multivalent_nodes().size());
  }
  state.counters["nodes"] =
      static_cast<double>(graph.value().nodes().size());
}
BENCHMARK(ModelCheck_Valence)->Arg(2)->Arg(3)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void ModelCheck_FuzzThroughput(benchmark::State& state) {
  // Schedule-fuzzer run rate on the 8-process DAC (the beyond-exhaustive
  // workload); items = complete adversarial runs.
  const auto inputs = iota_inputs(8);
  auto protocol =
      std::make_shared<lbsa::protocols::DacFromPacProtocol>(inputs);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    lbsa::modelcheck::FuzzOptions options;
    options.runs = 20;
    options.max_steps_per_run = 20'000;
    options.seed = seed++;
    const auto report =
        lbsa::modelcheck::fuzz_dac(protocol, 0, inputs, options);
    if (!report.ok()) {
      state.SkipWithError("unexpected violation");
      return;
    }
    benchmark::DoNotOptimize(report.runs_terminated);
  }
  state.SetItemsProcessed(state.iterations() * 20);
}
BENCHMARK(ModelCheck_FuzzThroughput)->Unit(benchmark::kMillisecond);

void ModelCheck_FullDacCheck(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto inputs = iota_inputs(n);
  for (auto _ : state) {
    auto protocol =
        std::make_shared<lbsa::protocols::DacFromPacProtocol>(inputs);
    auto report = lbsa::modelcheck::check_dac_task(protocol, 0, inputs);
    if (!report.is_ok() || !report.value().ok()) {
      state.SkipWithError("check failed");
      return;
    }
    benchmark::DoNotOptimize(report.value().node_count);
  }
}
BENCHMARK(ModelCheck_FullDacCheck)->Arg(2)->Arg(3)->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace
