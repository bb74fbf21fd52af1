// Shared declarations of the time-to-verdict benchmark (perfbench/).
//
// The benchmark drives three workloads through the library's public entry
// points, checks every verdict against a hand-written reference, and, on a
// traced run, splits the traced iteration's wall time across the layers
// that did the work. See perfbench/README.md for the workloads and
// perfbench/layer_map.json for which end-to-end metric each layer metric
// should move.
#ifndef LBSA_PERFBENCH_BENCH_H_
#define LBSA_PERFBENCH_BENCH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "base/status.h"
#include "modelcheck/explorer.h"
#include "modelcheck/task_check.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/symmetry.h"

namespace lbsa::perfbench {

// Worker threads for every exploration: this benchmark's load is one
// process with at most this many threads.
inline constexpr int kThreads = 4;

inline constexpr const char* kCorpusCheck = "corpus-check";
inline constexpr const char* kHierarchySweep = "hierarchy-sweep";
inline constexpr const char* kFuzzGroupKsa = "fuzz-groupksa";

// ---------------------------------------------------------------------------
// Reference verdicts (reference.cc).
// ---------------------------------------------------------------------------

// Expected check_*_task verdict for one corpus task, unreduced.
struct CorpusExpectation {
  const char* task;
  bool violated;
  // Distinct violated properties, sorted and comma-joined ("" when clean).
  const char* properties;
  std::uint64_t nodes;
  std::uint64_t transitions;
};

// The 22 corpus-check tasks: every registry task except groupksa (beyond
// the 5M-node budget) and benor (exhausts memory before the budget trips).
std::vector<CorpusExpectation> corpus_expectations();

// Empty iff `report` matches `want`; otherwise what differs.
std::string compare_corpus_verdict(const CorpusExpectation& want,
                                   const modelcheck::TaskReport& report);

// The committed HIERARCHY.json at `path` with its trailing "provenance"
// member removed: the rows document hierarchy_rows_json must reproduce.
StatusOr<std::string> load_hierarchy_rows_reference(const std::string& path);

// ---------------------------------------------------------------------------
// Verdict accounting and benchmark spans.
// ---------------------------------------------------------------------------

struct Verdicts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  // Counts one verdict; `problem` non-empty marks it failed.
  void record(const std::string& problem);
};

// A span the benchmark records around one public call, or around a whole
// iteration (parent == -1).
struct BenchSpan {
  std::string name;
  std::string label;
  int parent = -1;
  int iteration = 0;
  std::uint64_t start_us = 0;  // obs::trace_now_us() clock
  std::uint64_t end_us = 0;
};

// In-memory span log for the traced iteration. Workloads take a nullable
// pointer, so untraced iterations record nothing.
class SpanLog {
 public:
  explicit SpanLog(int iteration) : iteration_(iteration) {}

  class Scope {
   public:
    Scope(SpanLog* log, std::string name, std::string label = {});
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int index_ = -1;
  };

  const std::vector<BenchSpan>& spans() const { return spans_; }

 private:
  int iteration_;
  std::vector<BenchSpan> spans_;
  std::vector<int> open_;
};

// ---------------------------------------------------------------------------
// Workloads (workloads.cc).
// ---------------------------------------------------------------------------

// Fixed inputs of one workload, built once at set-up.
struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  std::vector<CorpusExpectation> corpus;  // corpus-check
  std::string hierarchy_rows;             // hierarchy-sweep reference
};

// Campaign statistics of one fuzz-groupksa iteration.
struct FuzzTally {
  std::uint64_t runs = 0;
  std::uint64_t interesting_runs = 0;
  std::uint64_t distinct_fingerprints = 0;
};

// Builds the workload's inputs; hierarchy-sweep reads HIERARCHY.json from
// the working directory. `flip_expectation` inverts the first corpus-check
// expectation (the reference self-test).
StatusOr<Workload> set_up_workload(const std::string& name, std::uint64_t seed,
                                   bool flip_expectation);

// One cold iteration: every public call from scratch, every verdict
// checked. `spans` is null outside the traced iteration.
void run_iteration(const Workload& workload, SpanLog* spans,
                   Verdicts* verdicts, FuzzTally* fuzz);

// ---------------------------------------------------------------------------
// Per-layer analysis of the traced run (layers.cc).
// ---------------------------------------------------------------------------

using MetricMap = std::map<std::string, double>;

// Median of `v` (0 when empty).
double median_of(std::vector<double> v);

struct TracedIteration {
  std::vector<BenchSpan> bench;
  std::vector<obs::TraceEvent> program;
  obs::MetricsSnapshot metrics;
  FuzzTally fuzz;
  double wall_s = 0;
};

// Span- and counter-derived layer metrics of the traced iteration, the
// wall-time breakdown printed next to the traced wall_to_verdict_s, and
// the iteration's spans as Chrome trace-event JSON (benchmark and program
// spans, each with its parent, iteration id and self time).
struct LayerReport {
  MetricMap metrics;
  MetricMap breakdown;
  std::string trace_json;
};
LayerReport analyze_traced_iteration(const TracedIteration& traced);

// Sets every stage-replay and engine-comparison metric to 0, the value a
// workload that runs neither reports.
void zero_replay_metrics(MetricMap* metrics);

// Stage replay: per-op costs of sim::enumerate_successors,
// Config::encode_into, hash_words_128 and BatchInternTable::intern on every
// node of `graph`, plus Canonicalizer::canonical_encode_into (with and
// without a CanonCache) on every successor when `canon` is non-null.
void replay_graph(const sim::Protocol& protocol,
                  const modelcheck::ConfigGraph& graph,
                  const sim::Canonicalizer* canon, MetricMap* metrics,
                  Verdicts* verdicts);

// Stage replay on hierarchy-sweep's largest instance: the n=6 DAC over
// (6,6)-PAC ports, explored under symmetry reduction.
void replay_hierarchy_instance(MetricMap* metrics, Verdicts* verdicts);

// Times Explorer::explore on dac6 once per engine parse_engine accepts
// (explore.engine_s.<engine>): serial at 1 thread, the others at kThreads.
// Checks every graph against the reference counts and hands the auto
// engine's graph to `on_auto_graph` before it is freed.
using GraphVisitor = std::function<void(const sim::Protocol&,
                                        const modelcheck::ConfigGraph&)>;
void compare_engines(MetricMap* metrics, Verdicts* verdicts,
                     std::string* auto_engine,
                     const GraphVisitor& on_auto_graph);

// Sum of each replayed per-op cost times the traced run's own op counts
// (explore.nodes inserts, explore.transitions successors), over
// explore.self_s. `symmetric` charges canonicalization instead of encode.
double stage_coverage(const MetricMap& metrics, bool symmetric);

}  // namespace lbsa::perfbench

#endif  // LBSA_PERFBENCH_BENCH_H_
