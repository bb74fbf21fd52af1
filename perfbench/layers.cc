// Per-layer accounting of the traced run. Everything here reads the
// program from outside: the spans and counters its existing obs layer
// records, and per-op timings of its public calls.
#include <algorithm>
#include <chrono>
#include <memory>

#include "base/arena.h"
#include "base/hashing.h"
#include "bench.h"
#include "modelcheck/batch_intern.h"
#include "modelcheck/corpus.h"
#include "obs/json.h"
#include "protocols/dac_from_nm_pac.h"
#include "sim/config.h"

namespace lbsa::perfbench {

namespace {

// One span of the traced iteration, benchmark or program, with its parent
// resolved and its self time computed.
struct SpanNode {
  std::string name;
  std::string label;
  std::string cat;
  int lane = 0;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  int parent = -1;
  int iteration = 0;
  bool bench = false;
  std::uint64_t self_us = 0;
  std::vector<std::pair<std::string, std::int64_t>> args;

  std::uint64_t dur() const { return end - start; }
};

// Spans that can enclose others. Program spans carry no parent link, so a
// program span's parent is the innermost container whose interval holds
// it; containers nest properly because the benchmark makes one public call
// at a time and the explorer's levels are sequential. Worker and shrink
// spans are leaves (sibling workers overlap without nesting).
bool is_container(const SpanNode& s) {
  return s.bench || s.name == "explore.run" || s.name == "explore.level" ||
         s.name == "fuzz.run";
}

// Length of the union of [start, end) intervals clipped to [lo, hi).
std::uint64_t covered_us(std::vector<std::pair<std::uint64_t, std::uint64_t>> iv,
                         std::uint64_t lo, std::uint64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::uint64_t total = 0;
  std::uint64_t cursor = lo;
  for (auto [s, e] : iv) {
    s = std::max(s, cursor);
    e = std::min(e, hi);
    if (e > s) {
      total += e - s;
      cursor = e;
    }
  }
  return total;
}

std::vector<SpanNode> build_span_tree(const TracedIteration& t) {
  std::vector<SpanNode> nodes;
  for (const BenchSpan& b : t.bench) {
    SpanNode n;
    n.name = b.name;
    n.label = b.label;
    n.cat = "bench";
    n.start = b.start_us;
    n.end = b.end_us;
    n.parent = b.parent;
    n.iteration = b.iteration;
    n.bench = true;
    nodes.push_back(std::move(n));
  }
  for (const obs::TraceEvent& e : t.program) {
    SpanNode n;
    n.name = e.name;
    n.cat = e.cat;
    n.lane = e.lane;
    n.start = e.ts_us;
    n.end = e.ts_us + e.dur_us;
    n.args = e.args;
    nodes.push_back(std::move(n));
  }
  for (std::size_t i = t.bench.size(); i < nodes.size(); ++i) {
    SpanNode& n = nodes[i];
    const bool leaf = !is_container(n);
    int best = -1;
    for (std::size_t j = 0; j < nodes.size(); ++j) {
      const SpanNode& c = nodes[j];
      // No span encloses another of its own kind: a zero-length level at a
      // level boundary would otherwise nest inside its predecessor.
      if (j == i || !is_container(c) || (!c.bench && c.name == n.name)) {
        continue;
      }
      // A worker span closes after its level's end barrier, so it can
      // outlast the level by the time its thread takes to wake; leaves
      // belong to the container open when they started.
      if (c.start > n.start || (leaf ? c.end < n.start : c.end < n.end)) {
        continue;
      }
      // Program spans are recorded when they close, so of two with equal
      // intervals the later-recorded one is the outer one.
      if (c.start == n.start && c.end == n.end && !c.bench && j < i) continue;
      // Innermost wins: latest start, then shortest, then a program span
      // over the benchmark span around its call, then the earliest-recorded.
      const SpanNode* b = best < 0 ? nullptr : &nodes[static_cast<std::size_t>(best)];
      if (b == nullptr || c.start > b->start ||
          (c.start == b->start && c.dur() < b->dur()) ||
          (c.start == b->start && c.dur() == b->dur() && b->bench &&
           !c.bench)) {
        best = static_cast<int>(j);
      }
    }
    n.parent = best;
  }
  // Iteration ids flow down from the benchmark spans.
  for (SpanNode& n : nodes) {
    if (n.bench) continue;
    int p = n.parent;
    while (p >= 0 && !nodes[static_cast<std::size_t>(p)].bench) {
      p = nodes[static_cast<std::size_t>(p)].parent;
    }
    n.iteration = p >= 0 ? nodes[static_cast<std::size_t>(p)].iteration : -1;
  }
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      nodes.size());
  for (const SpanNode& n : nodes) {
    if (n.parent >= 0) {
      children[static_cast<std::size_t>(n.parent)].emplace_back(n.start, n.end);
    }
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    SpanNode& n = nodes[i];
    n.self_us = n.dur() - covered_us(children[i], n.start, n.end);
  }
  return nodes;
}

double seconds(std::uint64_t us) { return static_cast<double>(us) * 1e-6; }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double counter(const obs::MetricsSnapshot& m, const std::string& name) {
  for (const auto& row : m.counters) {
    if (row.name == name) return static_cast<double>(row.value);
  }
  for (const auto& row : m.gauges) {
    if (row.name == name) return static_cast<double>(row.value);
  }
  return 0.0;
}

// --- stage replay ---------------------------------------------------------

// A replay keeps repeating its pass until this much time is measured, so
// each per-op cost rests on at least this much work.
constexpr double kMinReplaySeconds = 0.25;

struct Timed {
  std::uint64_t ops = 0;
  double seconds = 0;
};

template <typename F>
double time_s(F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Repeats `pass` (which times its own measured region) until
// kMinReplaySeconds are measured; returns nanoseconds per op.
template <typename Pass>
double ns_per_op(Pass&& pass) {
  Timed total;
  do {
    const Timed t = pass();
    if (t.ops == 0) break;
    total.ops += t.ops;
    total.seconds += t.seconds;
  } while (total.seconds < kMinReplaySeconds);
  return total.ops == 0 ? 0.0
                        : total.seconds * 1e9 / static_cast<double>(total.ops);
}

// Keeps replayed results observable so the timed loops are not elided.
volatile std::uint64_t g_sink = 0;

// hierarchy-sweep's largest instance, the (6,6) row's DAC check in
// HIERARCHY.json: quotient-graph nodes and transitions.
constexpr std::uint64_t kDac66Nodes = 3979;
constexpr std::uint64_t kDac66Transitions = 19257;

// The DAC nontriviality path flag check_dac_task folds: has any process
// other than `distinguished_pid` taken a step yet?
modelcheck::Explorer::FlagFn dac_flag_fn(int distinguished_pid) {
  return [distinguished_pid](std::int64_t flag, const sim::Step& step) {
    return step.pid != distinguished_pid ? std::int64_t{1} : flag;
  };
}

// Engines the comparison tries; one parse_engine no longer accepts is
// skipped, and its metric stays 0.
constexpr const char* kEngines[] = {"auto", "serial", "parallel",
                                    "workstealing"};

std::string spans_json(const std::vector<SpanNode>& nodes) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit");
  w.value_string("ms");
  w.key("traceEvents");
  w.begin_array();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const SpanNode& n = nodes[i];
    w.begin_object();
    w.key("name");
    w.value_string(n.name);
    w.key("cat");
    w.value_string(n.cat);
    w.key("ph");
    w.value_string("X");
    w.key("pid");
    w.value_int(1);
    w.key("tid");
    w.value_int(n.lane);
    w.key("ts");
    w.value_uint(n.start);
    w.key("dur");
    w.value_uint(n.dur());
    w.key("args");
    w.begin_object();
    w.key("id");
    w.value_uint(i);
    w.key("parent");
    w.value_int(n.parent);
    w.key("iteration");
    w.value_int(n.iteration);
    w.key("self_us");
    w.value_uint(n.self_us);
    if (!n.label.empty()) {
      w.key("label");
      w.value_string(n.label);
    }
    for (const auto& [k, v] : n.args) {
      w.key(k);
      w.value_int(v);
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return std::move(w).str();
}

}  // namespace

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

LayerReport analyze_traced_iteration(const TracedIteration& t) {
  const std::vector<SpanNode> nodes = build_span_tree(t);
  const obs::MetricsSnapshot& m = t.metrics;

  std::uint64_t run_us = 0, level_us = 0;
  std::uint64_t check_self_us = 0, fuzz_self_us = 0;
  std::uint64_t other_calls_us = 0, outside_calls_us = 0;
  std::vector<double> row_s;
  // Worker spans grouped under the span that encloses them.
  std::map<int, std::vector<const SpanNode*>> workers;
  for (const SpanNode& n : nodes) {
    if (n.name == "explore.run") run_us += n.dur();
    if (n.name == "explore.level") level_us += n.dur();
    if (n.name == "explore.worker" && n.parent >= 0) {
      workers[n.parent].push_back(&n);
    }
    if (n.name == "fuzz.run") fuzz_self_us += n.self_us;
    if (!n.bench) continue;
    if (n.name == "bench.check" || n.name == "bench.row") {
      check_self_us += n.self_us;
    } else if (n.name == "bench.iteration") {
      outside_calls_us += n.self_us;
    } else {
      other_calls_us += n.dur();
    }
    if (n.name == "bench.row") row_s.push_back(seconds(n.dur()));
  }

  // Parallel use: within each level (or, for the work-stealing engine,
  // the hull of its workers), a worker is either inside its span or
  // waiting outside it. The program closes a level's worker span after
  // the level's end barrier, so the wait seen here is the level's serial
  // part (start barrier, frontier merge), not the imbalance inside it.
  double busy_s = 0, capacity_s = 0, wait_s = 0;
  for (const auto& [parent, group] : workers) {
    const SpanNode& p = nodes[static_cast<std::size_t>(parent)];
    std::uint64_t lo = p.start, hi = p.end;
    if (p.name != "explore.level") {
      lo = group.front()->start;
      hi = group.front()->end;
      for (const SpanNode* w : group) {
        lo = std::min(lo, w->start);
        hi = std::max(hi, w->end);
      }
    }
    for (const SpanNode* w : group) {
      const std::uint64_t in = std::min(w->end, hi) - std::min(w->start, hi);
      busy_s += seconds(in);
      wait_s += seconds((hi - lo) - in);
    }
    capacity_s += seconds(hi - lo) * static_cast<double>(group.size());
  }

  LayerReport out;
  MetricMap& r = out.metrics;
  const double explore_s = seconds(run_us);
  const double nodes_n = counter(m, "explore.nodes");
  r["explore.self_s"] = explore_s;
  r["explore.levels_s"] = seconds(level_us);
  r["explore.build_s"] = seconds(run_us - std::min(run_us, level_us));
  r["explore.nodes"] = nodes_n;
  r["explore.transitions"] = counter(m, "explore.transitions");
  r["explore.nodes_per_s"] = ratio(nodes_n, explore_s);
  r["explore.auto_switches"] = counter(m, "explore.auto.switches");
  r["explore.worker_busy_share"] = ratio(busy_s, capacity_s);
  r["explore.barrier_wait_s"] = wait_s;
  r["explore.intern.probes_per_node"] =
      ratio(counter(m, "explore.intern.probes"), nodes_n);
  r["explore.intern.cas_retries"] = counter(m, "explore.intern.cas_retries");

  r["task_check.self_s"] = seconds(check_self_us);
  r["task_check.share"] = ratio(seconds(check_self_us), t.wall_s);

  // With an orbit cache attached every canonicalization is a hit or a
  // miss, so hits + misses counts the calls.
  const double hits = counter(m, "explore.canon.cache_hits");
  const double calls = hits + counter(m, "explore.canon.cache_misses");
  r["canon.cache_hit_ratio"] = ratio(hits, calls);
  r["canon.prunes_per_call"] = ratio(counter(m, "explore.canon.prunes"), calls);
  r["canon.fast_path_share"] =
      ratio(counter(m, "explore.canon.fast_path"), calls);

  const double fuzz_s = seconds(fuzz_self_us);
  const double steps = counter(m, "sim.steps");
  r["fuzz.self_s"] = fuzz_s;
  r["fuzz.steps_per_s"] = ratio(steps, fuzz_s);
  r["fuzz.fingerprint_novelty"] =
      ratio(static_cast<double>(t.fuzz.distinct_fingerprints), steps);
  r["fuzz.interesting_share"] =
      ratio(static_cast<double>(t.fuzz.interesting_runs),
            static_cast<double>(t.fuzz.runs));
  r["shrink.replays"] = counter(m, "shrink.replays");

  r["hierarchy.row_s_p50"] = median_of(row_s);
  r["hierarchy.row_s_max"] =
      row_s.empty() ? 0.0 : *std::max_element(row_s.begin(), row_s.end());

  out.breakdown["traced_wall_s"] = t.wall_s;
  out.breakdown["explore.self_s"] = explore_s;
  out.breakdown["task_check.self_s"] = seconds(check_self_us);
  out.breakdown["other_public_calls_s"] = seconds(other_calls_us);
  out.breakdown["outside_public_calls_s"] = seconds(outside_calls_us);
  out.trace_json = spans_json(nodes);
  return out;
}

void replay_graph(const sim::Protocol& protocol,
                  const modelcheck::ConfigGraph& graph,
                  const sim::Canonicalizer* canon, MetricMap* metrics,
                  Verdicts* verdicts) {
  const std::vector<modelcheck::Node>& nodes = graph.nodes();
  const int n = protocol.process_count();
  MetricMap& r = *metrics;

  std::uint64_t successors_seen = 0;
  std::vector<sim::Config> successors;  // kept only for the canon replay
  std::vector<sim::Successor> succ;
  r["step.ns_per_successor"] = ns_per_op([&] {
    Timed t;
    t.seconds = time_s([&] {
      for (const modelcheck::Node& node : nodes) {
        for (int pid = 0; pid < n; ++pid) {
          if (!node.config.enabled(pid)) continue;
          succ.clear();
          sim::enumerate_successors(protocol, node.config, pid, &succ);
          t.ops += succ.size();
        }
      }
    });
    successors_seen = t.ops;
    return t;
  });
  verdicts->record(successors_seen == graph.transition_count()
                       ? ""
                       : "stage replay: " + std::to_string(successors_seen) +
                             " successors, graph has " +
                             std::to_string(graph.transition_count()) +
                             " transitions");

  std::vector<std::int64_t> buf;
  r["encode.ns_per_config"] = ns_per_op([&] {
    Timed t;
    t.seconds = time_s([&] {
      for (const modelcheck::Node& node : nodes) {
        node.config.encode_into(&buf);
        t.ops += 1;
      }
    });
    g_sink = g_sink + buf.size();
    return t;
  });

  // Intern keys exactly as the parallel engines build them: the encoding
  // followed by the path flag.
  WordArena key_store;
  std::vector<std::span<const std::int64_t>> keys;
  keys.reserve(nodes.size());
  for (const modelcheck::Node& node : nodes) {
    node.config.encode_into(&buf);
    buf.push_back(node.flag);
    std::int64_t* words = key_store.alloc(buf.size());
    std::copy(buf.begin(), buf.end(), words);
    keys.emplace_back(words, buf.size());
  }

  r["hash.ns_per_key"] = ns_per_op([&] {
    Timed t;
    std::uint64_t h = 0;
    t.seconds = time_s([&] {
      for (const auto& key : keys) h ^= hash_words_128(key).lo;
    });
    t.ops = keys.size();
    g_sink = g_sink + h;
    return t;
  });

  using Table = modelcheck::BatchInternTable<std::uint32_t>;
  std::uint64_t fresh = 0;
  r["intern.ns_per_insert"] = ns_per_op([&] {
    auto table = std::make_unique<Table>();
    WordArena arena;
    Table::Tally tally;
    Timed t;
    fresh = 0;
    t.seconds = time_s([&] {
      for (std::size_t i = 0; i < keys.size(); ++i) {
        fresh += table->intern(keys[i], static_cast<std::uint32_t>(i), &arena,
                               &tally)
                     .inserted;
      }
    });
    t.ops = keys.size();
    return t;
  });
  {
    auto table = std::make_unique<Table>();
    WordArena arena;
    Table::Tally tally;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      table->intern(keys[i], static_cast<std::uint32_t>(i), &arena, &tally);
    }
    std::uint64_t duplicates = 0;
    r["intern.ns_per_duplicate"] = ns_per_op([&] {
      Timed t;
      duplicates = 0;
      t.seconds = time_s([&] {
        for (std::size_t i = 0; i < keys.size(); ++i) {
          duplicates += !table->intern(keys[i], static_cast<std::uint32_t>(i),
                                       &arena, &tally)
                             .inserted;
        }
      });
      t.ops = keys.size();
      return t;
    });
    verdicts->record(fresh == keys.size() && duplicates == keys.size()
                         ? ""
                         : "stage replay: intern table saw " +
                               std::to_string(fresh) + " inserts and " +
                               std::to_string(duplicates) +
                               " duplicates of " +
                               std::to_string(keys.size()) + " nodes");
  }

  if (canon == nullptr) return;
  for (const modelcheck::Node& node : nodes) {
    for (int pid = 0; pid < n; ++pid) {
      if (!node.config.enabled(pid)) continue;
      succ.clear();
      sim::enumerate_successors(protocol, node.config, pid, &succ);
      for (sim::Successor& s : succ) successors.push_back(std::move(s.config));
    }
  }
  std::vector<std::int64_t> out;
  std::vector<std::uint8_t> perm;
  r["canon.ns_per_config"] = ns_per_op([&] {
    sim::CanonScratch scratch;
    Timed t;
    t.seconds = time_s([&] {
      for (const sim::Config& c : successors) {
        canon->canonical_encode_into(c, &out, &perm, &scratch);
      }
    });
    t.ops = successors.size();
    return t;
  });
  // A fresh cache per pass, as each exploration starts with one.
  r["canon.ns_per_config_cached"] = ns_per_op([&] {
    auto cache = std::make_shared<sim::CanonCache>(
        modelcheck::ExploreOptions{}.canon_cache_bytes);
    cache->ensure_universe(canon->universe_salt());
    sim::CanonScratch scratch;
    scratch.attach_cache(cache);
    Timed t;
    t.seconds = time_s([&] {
      for (const sim::Config& c : successors) {
        canon->canonical_encode_into(c, &out, &perm, &scratch);
      }
    });
    t.ops = successors.size();
    return t;
  });
  g_sink = g_sink + out.size();
}

void replay_hierarchy_instance(MetricMap* metrics, Verdicts* verdicts) {
  const int n = 6;
  std::vector<Value> inputs(static_cast<std::size_t>(n), 200);
  inputs[0] = 100;
  auto protocol = std::make_shared<protocols::DacFromNmPacProtocol>(
      inputs, /*m=*/n, /*distinguished_pid=*/0);
  auto canon = std::make_shared<const sim::Canonicalizer>(
      protocol, protocol->symmetry());
  modelcheck::ExploreOptions options;
  options.threads = kThreads;
  options.reduction = modelcheck::Reduction::kSymmetry;
  options.flag_fn_symmetric = true;
  options.canonicalizer = canon;
  StatusOr<modelcheck::ConfigGraph> graph_or =
      modelcheck::Explorer(protocol).explore(options, dac_flag_fn(0), 0);
  if (!graph_or.is_ok()) {
    verdicts->record("n=6 DAC over (6,6)-PAC: " +
                     graph_or.status().to_string());
    return;
  }
  const modelcheck::ConfigGraph& graph = graph_or.value();
  verdicts->record(graph.nodes().size() == kDac66Nodes &&
                           graph.transition_count() == kDac66Transitions
                       ? ""
                       : "n=6 DAC over (6,6)-PAC: graph " +
                             std::to_string(graph.nodes().size()) + "/" +
                             std::to_string(graph.transition_count()));
  replay_graph(*protocol, graph, canon.get(), metrics, verdicts);
}

void zero_replay_metrics(MetricMap* metrics) {
  for (const char* name :
       {"step.ns_per_successor", "encode.ns_per_config", "hash.ns_per_key",
        "intern.ns_per_insert", "intern.ns_per_duplicate",
        "canon.ns_per_config", "canon.ns_per_config_cached"}) {
    (*metrics)[name] = 0;
  }
  for (const char* engine : kEngines) {
    (*metrics)[std::string("explore.engine_s.") + engine] = 0;
  }
}

void compare_engines(MetricMap* metrics, Verdicts* verdicts,
                     std::string* auto_engine,
                     const GraphVisitor& on_auto_graph) {
  StatusOr<modelcheck::NamedTask> task_or = modelcheck::make_named_task("dac6");
  if (!task_or.is_ok()) {
    verdicts->record("dac6: " + task_or.status().to_string());
    return;
  }
  const modelcheck::NamedTask& task = task_or.value();
  CorpusExpectation want{};
  for (const CorpusExpectation& e : corpus_expectations()) {
    if (std::string(e.task) == "dac6") want = e;
  }
  for (const char* name : kEngines) {
    const std::string key = std::string("explore.engine_s.") + name;
    StatusOr<modelcheck::ExploreEngine> engine = modelcheck::parse_engine(name);
    if (!engine.is_ok()) continue;
    modelcheck::ExploreOptions options;
    options.engine = engine.value();
    options.threads =
        engine.value() == modelcheck::ExploreEngine::kSerial ? 1 : kThreads;
    StatusOr<modelcheck::ConfigGraph> graph_or = internal_error("not run");
    (*metrics)[key] = time_s([&] {
      graph_or = modelcheck::Explorer(task.protocol)
                     .explore(options, dac_flag_fn(task.distinguished_pid), 0);
    });
    if (!graph_or.is_ok()) {
      verdicts->record(std::string("dac6 ") + name + ": " +
                       graph_or.status().to_string());
      continue;
    }
    const modelcheck::ConfigGraph& graph = graph_or.value();
    verdicts->record(graph.nodes().size() == want.nodes &&
                             graph.transition_count() == want.transitions
                         ? ""
                         : std::string("dac6 ") + name + ": graph " +
                               std::to_string(graph.nodes().size()) + "/" +
                               std::to_string(graph.transition_count()));
    if (engine.value() == modelcheck::ExploreEngine::kAuto) {
      *auto_engine = modelcheck::engine_name(graph.engine_used());
      on_auto_graph(*task.protocol, graph);
    }
  }
}

double stage_coverage(const MetricMap& m, bool symmetric) {
  const auto get = [&](const char* name) {
    auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second;
  };
  const double nodes = get("explore.nodes");
  const double transitions = get("explore.transitions");
  const double per_successor =
      get("step.ns_per_successor") +
      (symmetric ? get("canon.ns_per_config_cached")
                 : get("encode.ns_per_config"));
  // BatchInternTable::intern hashes its key, so the intern costs already
  // include hash_words_128.
  const double ns = transitions * per_successor +
                    nodes * get("intern.ns_per_insert") +
                    std::max(0.0, transitions - nodes) *
                        get("intern.ns_per_duplicate");
  return ratio(ns * 1e-9, get("explore.self_s"));
}

}  // namespace lbsa::perfbench
