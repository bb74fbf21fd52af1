#include "modelcheck/explorer.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <deque>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <utility>

#include "base/arena.h"
#include "base/check.h"
#include "base/hashing.h"
#include "modelcheck/batch_intern.h"
#include "modelcheck/checkpoint.h"
#include "obs/obs.h"

namespace lbsa::modelcheck {
namespace {

struct KeyHash {
  std::size_t operator()(const std::vector<std::int64_t>& key) const {
    return static_cast<std::size_t>(hash_words(key));
  }
};

int resolve_threads(const ExploreOptions& options) {
  if (options.threads > 0) return options.threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

// Partial-order reduction's ample-set selector: the smallest enabled
// process whose next action is a deterministic, purely-local step (decide /
// abort — touches no shared object) and, when a path flag is folded along
// edges, leaves the flag unchanged (the visibility proviso: a flag-changing
// step may not be prioritized, or flag-distinguished histories would be
// lost). Returns -1 when no such process exists and the node must be fully
// expanded. Pure function of (config, flag), so all engines agree and
// reduced graphs stay deterministic. The cycle proviso is structural: an
// ample step strictly shrinks the enabled set, so no cycle consists of
// ample-reduced nodes.
int select_ample_pid(const sim::Protocol& protocol, const sim::Config& config,
                     std::int64_t flag, const Explorer::FlagFn& flag_fn) {
  const int n = static_cast<int>(config.procs.size());
  for (int pid = 0; pid < n; ++pid) {
    if (!config.enabled(pid)) continue;
    const sim::Action action =
        protocol.next_action(pid, config.procs[static_cast<std::size_t>(pid)]);
    if (action.kind == sim::Action::Kind::kInvoke) continue;
    if (flag_fn) {
      // Probe with the exact Step enumerate_successors() would emit for
      // this local action.
      const sim::Step probe{pid, action, kNil, 0};
      if (flag_fn(flag, probe) != flag) continue;
    }
    return pid;
  }
  return -1;
}

// End-of-run level statistics, derived from the canonical graph so every
// engine reports byte-identical values: one frontier-size observation per
// BFS level, the level count, and the maximum depth.
void record_graph_metrics(const ConfigGraph& graph) {
  if (!obs::metrics_enabled()) return;
  std::vector<std::uint64_t> level_sizes;
  for (const Node& node : graph.nodes()) {
    if (node.depth >= level_sizes.size()) level_sizes.resize(node.depth + 1, 0);
    ++level_sizes[node.depth];
  }
  for (std::uint64_t size : level_sizes) {
    LBSA_OBS_HISTOGRAM_OBSERVE("explore.frontier_size", size);
  }
  LBSA_OBS_COUNTER_ADD("explore.levels", level_sizes.size());
  if (!level_sizes.empty()) {
    LBSA_OBS_GAUGE_MAX("explore.max_depth", level_sizes.size() - 1);
  }
}

// Frontier items claimed per grab in the parallel engine. Sized so a
// chunk's successors (a handful per item) form per-shard intern batches
// big enough to amortize the shared-lock round per shard across several
// keys. Doubles as the mid-level lifecycle polling cadence in both
// engines: every kChunk expansions each engine re-checks cancel/deadline,
// so one huge level (the dac5/dac6 tails) cannot blow past a request
// deadline by more than a bounded amount of work.
constexpr std::size_t kChunk = 64;

// Why a run stopped at a level boundary, if it should.
enum class StopReason { kNone, kCancelled, kDeadline, kMaxLevels };

StopReason stop_reason(const ExploreOptions& options,
                       std::uint32_t session_levels) {
  if (options.cancel != nullptr && options.cancel->cancelled()) {
    return StopReason::kCancelled;
  }
  if (deadline_passed(options.deadline)) return StopReason::kDeadline;
  if (options.max_levels > 0 && session_levels >= options.max_levels) {
    return StopReason::kMaxLevels;
  }
  return StopReason::kNone;
}

// Rebuilds every checkpointed configuration from its word encoding, or the
// first decode error (checksummed files make this near-impossible to hit,
// but a hand-edited checkpoint must fail cleanly, not crash).
StatusOr<std::vector<sim::Config>> decode_checkpoint_configs(
    const ExploreCheckpoint& cp) {
  std::vector<sim::Config> configs;
  configs.reserve(cp.node_words.size());
  for (const auto& words : cp.node_words) {
    auto config = sim::decode_config(words);
    if (!config.is_ok()) return config.status();
    configs.push_back(std::move(config).value());
  }
  return configs;
}

// Snapshot of a paused exploration (graph at a level boundary + the pending
// frontier), ready for write_explore_checkpoint().
ExploreCheckpoint checkpoint_from_graph(const ConfigGraph& graph,
                                        std::span<const std::uint32_t> frontier,
                                        std::uint32_t levels_completed,
                                        std::uint64_t fingerprint,
                                        const ExploreOptions& options,
                                        bool has_flag_fn,
                                        std::int64_t initial_flag) {
  ExploreCheckpoint cp;
  cp.fingerprint = fingerprint;
  cp.task_label = options.checkpoint_label;
  cp.reduction = options.reduction;
  cp.initial_flag = initial_flag;
  cp.has_flag_fn = has_flag_fn;
  cp.max_nodes = options.max_nodes;
  cp.allow_truncation = options.allow_truncation;
  cp.truncated = graph.truncated();
  cp.transition_count = graph.transition_count();
  cp.levels_completed = levels_completed;
  const std::size_t n = graph.nodes().size();
  cp.node_words.reserve(n);
  cp.node_flags.reserve(n);
  cp.node_depths.reserve(n);
  cp.parents.reserve(n);
  cp.parent_steps.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Node& node = graph.nodes()[i];
    cp.node_words.push_back(node.config.encode());
    cp.node_flags.push_back(node.flag);
    cp.node_depths.push_back(node.depth);
    cp.parents.push_back(graph.parents()[i].first);
    cp.parent_steps.push_back(graph.parents()[i].second);
  }
  cp.discovery_perms = graph.discovery_perms();
  cp.edges = graph.edges();
  cp.frontier.assign(frontier.begin(), frontier.end());
  return cp;
}

Status write_checkpoint(const ConfigGraph& graph,
                        std::span<const std::uint32_t> frontier,
                        std::uint32_t levels_completed,
                        std::uint64_t fingerprint,
                        const ExploreOptions& options, bool has_flag_fn,
                        std::int64_t initial_flag) {
  LBSA_OBS_COUNTER_ADD_V("explore.checkpoint.writes", 1);
  return write_explore_checkpoint(
      checkpoint_from_graph(graph, frontier, levels_completed, fingerprint,
                            options, has_flag_fn, initial_flag),
      options.checkpoint_path);
}

// Attaches the run's per-worker orbit cache (if any) to `scratch`. The pool
// hands out one single-threaded cache per worker index; caches are keyed by
// the canonicalizer's universe salt, so a pool shared across hierarchy-sweep
// cells self-invalidates when the protocol changes.
void attach_canon_cache(const ExploreOptions& options,
                        const sim::Canonicalizer* sym, std::size_t worker,
                        sim::CanonScratch* scratch) {
  if (sym == nullptr || options.canon_cache_pool == nullptr) return;
  scratch->attach_cache(
      options.canon_cache_pool->worker_cache(worker, sym->universe_salt()));
}

// Publishes the explore.canon.* counters as deltas since the last call (so
// engines can drain at any quiescence cadence), then advances `seen`.
// Volatile: hit/prune tallies depend on expansion interleaving and on cache
// contents carried over from earlier runs sharing the pool.
struct CanonSeen {
  std::uint64_t hits = 0, misses = 0, prunes = 0, fast = 0;
};
void add_canon_metrics(const sim::CanonScratch& s, CanonSeen* seen) {
  if (!obs::metrics_enabled()) return;
  LBSA_OBS_COUNTER_ADD_V("explore.canon.cache_hits",
                         s.cache_hits - seen->hits);
  LBSA_OBS_COUNTER_ADD_V("explore.canon.cache_misses",
                         s.cache_misses - seen->misses);
  LBSA_OBS_COUNTER_ADD_V("explore.canon.prunes", s.prunes - seen->prunes);
  LBSA_OBS_COUNTER_ADD_V("explore.canon.fast_path",
                         s.fast_path - seen->fast);
  *seen = CanonSeen{s.cache_hits, s.cache_misses, s.prunes, s.fast_path};
}

// ---------------------------------------------------------------------------
// Serial reference engine. This is the semantic definition of the canonical
// graph: node ids in BFS discovery order (frontier in id order; within a
// node, pids ascending, then outcome order), parents_ from the discovering
// edge, depths from level-synchronous discovery. The parallel engine below
// must reproduce its output bit for bit on complete explorations.
// ---------------------------------------------------------------------------
}  // namespace

StatusOr<ConfigGraph> Explorer::explore_serial(
    const ExploreOptions& options, const FlagFn& flag_fn,
    std::int64_t initial_flag, const sim::Canonicalizer* sym, bool por,
    std::uint64_t fingerprint, std::uint64_t switch_after_nodes,
    bool* switched) const {
  const sim::Protocol& protocol = *protocol_;
  ConfigGraph graph;
  std::unordered_map<std::vector<std::int64_t>, std::uint32_t, KeyHash> index;

  // Reused scratch: the encoded key only lands in the map on insertion.
  std::vector<std::int64_t> key;
  std::vector<std::uint8_t> perm;
  sim::CanonScratch canon_scratch;
  attach_canon_cache(options, sym, /*worker=*/0, &canon_scratch);
  CanonSeen canon_seen;
  auto intern = [&](sim::Config config, std::int64_t flag,
                    std::uint32_t parent, const sim::Step& step,
                    std::uint32_t depth) -> std::pair<std::uint32_t, bool> {
    if (sym != nullptr) {
      sym->canonical_encode_into(config, &key, &perm, &canon_scratch);
      if (!perm.empty()) LBSA_OBS_COUNTER_ADD("explore.sym.renamed", 1);
    } else {
      config.encode_into(&key);
    }
    key.push_back(flag);
    auto [it, inserted] =
        index.try_emplace(key, static_cast<std::uint32_t>(graph.nodes_.size()));
    if (inserted) {
      LBSA_OBS_COUNTER_ADD("explore.nodes", 1);
      if (sym != nullptr && !perm.empty()) {
        const std::vector<int> as_int(perm.begin(), perm.end());
        sim::apply_pid_permutation(protocol, as_int, &config);
      }
      graph.nodes_.push_back(Node{std::move(config), flag, depth});
      graph.edges_.emplace_back();
      graph.parents_.emplace_back(parent, step);
      if (sym != nullptr) graph.discovery_perms_.push_back(perm);
    }
    return {it->second, inserted};
  };

  std::deque<std::uint32_t> frontier;
  std::uint32_t start_depth = 0;
  if (options.resume != nullptr) {
    // Seed the canonical prefix directly (NOT through intern(): resumed
    // nodes must not re-bump explore.nodes — the counters describe work done
    // this session). The checkpoint stores representatives, so plain
    // encoding reproduces the intern keys even under symmetry reduction.
    const ExploreCheckpoint& cp = *options.resume;
    auto configs = decode_checkpoint_configs(cp);
    if (!configs.is_ok()) return configs.status();
    const std::size_t n = configs.value().size();
    graph.nodes_.reserve(n);
    std::vector<std::int64_t> seed_key;
    for (std::size_t i = 0; i < n; ++i) {
      sim::Config& config = configs.value()[i];
      config.encode_into(&seed_key);
      seed_key.push_back(cp.node_flags[i]);
      const bool fresh =
          index.try_emplace(seed_key, static_cast<std::uint32_t>(i)).second;
      if (!fresh) return invalid_argument("resume: duplicate checkpoint node");
      graph.nodes_.push_back(
          Node{std::move(config), cp.node_flags[i], cp.node_depths[i]});
      graph.parents_.emplace_back(cp.parents[i], cp.parent_steps[i]);
    }
    graph.edges_ = cp.edges;
    graph.discovery_perms_ = cp.discovery_perms;
    graph.transition_count_ = cp.transition_count;
    graph.truncated_ = cp.truncated;
    frontier.assign(cp.frontier.begin(), cp.frontier.end());
    start_depth = cp.levels_completed;
  } else {
    sim::Config init = sim::initial_config(protocol);
    intern(std::move(init), initial_flag, 0, sim::Step{}, 0);
    frontier.push_back(0);
  }

  std::uint64_t pops = 0;

  // One "explore.level" phase event per BFS level. The frontier is a FIFO,
  // so popped depths are non-decreasing and a depth change marks a level
  // boundary — matching the parallel engine's one-span-per-level exactly.
  bool level_open = false;
  std::uint64_t level_start_us = 0;
  std::uint32_t span_depth = 0;
  std::uint64_t span_nodes = 0;
  auto close_level_span = [&] {
    if (!level_open) return;
    level_open = false;
    obs::TraceEvent event;
    event.name = "explore.level";
    event.cat = obs::kCatPhase;
    event.lane = 0;
    event.ts_us = level_start_us;
    const std::uint64_t now = obs::trace_now_us();
    event.dur_us = now >= level_start_us ? now - level_start_us : 0;
    event.args.emplace_back("level", span_depth);
    event.args.emplace_back("nodes", static_cast<std::int64_t>(span_nodes));
    obs::Tracer::global().record(std::move(event));
  };
  auto open_level_span = [&](std::uint32_t d) {
    span_depth = d;
    span_nodes = 0;
    if (!obs::tracing_enabled()) return;
    level_open = true;
    level_start_us = obs::trace_now_us();
  };
  open_level_span(start_depth);

  // Mid-level lifecycle polling: when a cancel token or deadline is armed,
  // the pop loop below re-checks it every kChunk pops and, on a trip, rolls
  // the graph back to the last level-boundary snapshot — so the interrupted
  // result is still an exact level prefix (the only state a checkpoint can
  // represent) but one huge level can no longer blow past a deadline.
  // The snapshot is the frontier ids plus three scalars, refreshed once per
  // level, and taken only while armed.
  const bool lifecycle_armed =
      options.cancel != nullptr || options.deadline != Deadline{};
  struct LevelSnapshot {
    std::vector<std::uint32_t> frontier;
    std::size_t nodes = 0;
    std::uint64_t transitions = 0;
    bool truncated = false;
    std::uint32_t depth = 0;
  };
  LevelSnapshot snap;
  auto take_snapshot = [&](std::uint32_t d) {
    if (!lifecycle_armed) return;
    snap.frontier.assign(frontier.begin(), frontier.end());
    snap.nodes = graph.nodes_.size();
    snap.transitions = graph.transition_count_;
    snap.truncated = graph.truncated_;
    snap.depth = d;
  };
  take_snapshot(start_depth);

  std::vector<sim::Successor> successors;
  while (!frontier.empty()) {
    const std::uint32_t id = frontier.front();
    const std::uint32_t depth = graph.nodes_[id].depth;

    if (depth != span_depth) {
      close_level_span();
      // Level boundary: every node of depth < `depth` is expanded, and the
      // deque holds exactly the depth-`depth` nodes in ascending id order —
      // the one state a checkpoint can represent and a resume can
      // reproduce. All lifecycle actions happen here and only here.
      if (sym != nullptr) add_canon_metrics(canon_scratch, &canon_seen);
      const std::uint32_t session_levels = depth - start_depth;
      if (stop_reason(options, session_levels) != StopReason::kNone) {
        graph.interrupted_ = true;
        graph.levels_completed_ = depth;
        graph.pending_frontier_.assign(frontier.begin(), frontier.end());
        if (!options.checkpoint_path.empty()) {
          const Status written = write_checkpoint(
              graph, graph.pending_frontier_, depth, fingerprint, options,
              flag_fn != nullptr, initial_flag);
          if (!written.is_ok()) return written;
        }
        break;
      }
      if (switch_after_nodes > 0 &&
          graph.nodes_.size() >= switch_after_nodes) {
        // kAuto handoff: return the canonical prefix exactly as an
        // interruption would, but leave checkpoint writing and graph-metric
        // recording to the engine that finishes the run.
        *switched = true;
        graph.interrupted_ = true;
        graph.levels_completed_ = depth;
        graph.pending_frontier_.assign(frontier.begin(), frontier.end());
        break;
      }
      if (!options.checkpoint_path.empty() &&
          options.checkpoint_every_levels > 0 && session_levels > 0 &&
          session_levels % options.checkpoint_every_levels == 0) {
        const std::vector<std::uint32_t> pending(frontier.begin(),
                                                 frontier.end());
        const Status written =
            write_checkpoint(graph, pending, depth, fingerprint, options,
                             flag_fn != nullptr, initial_flag);
        if (!written.is_ok()) return written;
      }
      open_level_span(depth);
      take_snapshot(depth);
    }
    frontier.pop_front();
    ++pops;
    // Mid-level lifecycle poll, every kChunk pops (matching the parallel
    // engine's work-chunk cadence). max_levels stays level-granular; only
    // cancel/deadline — the request-lifecycle knobs — trip mid-level.
    if (lifecycle_armed && (pops & (kChunk - 1)) == 0 &&
        ((options.cancel != nullptr && options.cancel->cancelled()) ||
         deadline_passed(options.deadline))) {
      // Roll back to the level-start snapshot: drop every node discovered
      // during this partial level and the edges its expansions emitted, so
      // the result is the same graph a boundary-time stop would produce.
      graph.nodes_.resize(snap.nodes);
      graph.edges_.resize(snap.nodes);
      graph.parents_.resize(snap.nodes);
      if (sym != nullptr) graph.discovery_perms_.resize(snap.nodes);
      for (const std::uint32_t fid : snap.frontier) graph.edges_[fid].clear();
      graph.transition_count_ = snap.transitions;
      graph.truncated_ = snap.truncated;
      graph.interrupted_ = true;
      graph.levels_completed_ = snap.depth;
      graph.pending_frontier_ = std::move(snap.frontier);
      if (!options.checkpoint_path.empty()) {
        const Status written = write_checkpoint(
            graph, graph.pending_frontier_, snap.depth, fingerprint, options,
            flag_fn != nullptr, initial_flag);
        if (!written.is_ok()) return written;
      }
      break;
    }
    // Copy what we need: intern() may reallocate nodes_.
    const sim::Config config = graph.nodes_[id].config;
    const std::int64_t flag = graph.nodes_[id].flag;
    ++span_nodes;

    const int ample =
        por ? select_ample_pid(protocol, config, flag, flag_fn) : -1;
    if (ample >= 0) {
      LBSA_OBS_COUNTER_ADD("explore.por.skips", config.enabled_count() - 1);
    }
    const int n = static_cast<int>(config.procs.size());
    for (int pid = 0; pid < n; ++pid) {
      if (!config.enabled(pid)) continue;
      if (ample >= 0 && pid != ample) continue;
      successors.clear();
      sim::enumerate_successors(protocol, config, pid, &successors);
      for (sim::Successor& succ : successors) {
        const std::int64_t next_flag =
            flag_fn ? flag_fn(flag, succ.step) : flag;
        auto [to, inserted] = intern(std::move(succ.config), next_flag, id,
                                     succ.step, depth + 1);
        graph.edges_[id].push_back(
            Edge{to, pid, succ.step.action.kind});
        ++graph.transition_count_;
        LBSA_OBS_COUNTER_ADD("explore.transitions", 1);
        if (inserted) {
          if (graph.nodes_.size() > options.max_nodes) {
            if (!options.allow_truncation) {
              return resource_exhausted(
                  "explore: node budget exceeded (" +
                  std::to_string(options.max_nodes) + ")");
            }
            // Truncation invariant: the over-budget node was already pushed
            // into nodes_/edges_/parents_ by intern(), so the edge we just
            // emitted has a valid target and path_to(to) replays — the node
            // is KEPT but (by skipping the frontier push) never expanded.
            graph.truncated_ = true;
            continue;
          }
          frontier.push_back(to);
        }
      }
    }
  }
  close_level_span();
  if (!graph.interrupted_) {
    graph.levels_completed_ =
        graph.nodes_.empty() ? 0 : graph.nodes_.back().depth + 1;
  }
  if (sym != nullptr) add_canon_metrics(canon_scratch, &canon_seen);
  LBSA_CHECK(graph.nodes_.size() == graph.edges_.size() &&
             graph.nodes_.size() == graph.parents_.size());
  if (switched == nullptr || !*switched) record_graph_metrics(graph);
  return graph;
}

// ---------------------------------------------------------------------------
// Parallel engine: expansion + canonical renumbering machinery.
//
// Determinism recipe (complete graphs are bit-identical to explore_serial):
//   1. Each frontier node is expanded by exactly one worker, which emits its
//      raw edge list in the canonical within-node order (pids ascending,
//      outcomes in enumeration order). Provisional ids from the concurrent
//      intern table are schedule-dependent, but the edge *lists* are not.
//   2. A final single-threaded renumbering pass replays the canonical BFS
//      over the provisional graph: walking nodes in canonical id order and
//      each edge list in order, first-touch assigns canonical ids — which
//      reproduces the serial discovery order, parents and all.
//   3. Workers barrier between levels, so stored depths are exact BFS
//      distances (the walk checks each against its canonical parent) and a
//      level-boundary stop needs no repair. A mid-level stop is handled by
//      trimming the walked graph back to the deepest fully expanded level
//      (the ids the walk assigns are depth-monotone, so the serial-identical
//      prefix is literally an array prefix).
//
// The hot path is allocation-free after warm-up: successor keys are encoded
// straight into a per-worker bump arena (Config::encode_to), interned in
// per-shard batches under one shared-lock acquisition each (BatchInternTable),
// and raw edges land in flat per-worker pools. Each node's configuration is
// stored once, in the winning inserter's table payload (losers' copies are
// simply dropped); the canonical pass moves them out into the final graph
// instead of re-decoding keys, and frontier items carry only the node id.
// ---------------------------------------------------------------------------

namespace {

// Payload stored per interned (config, flag) node.
struct NodeMeta {
  std::int64_t flag = 0;
  std::uint32_t depth = 0;
  // Expansion eligibility, read back by the mid-level-stop trim pass.
  enum State : std::uint8_t {
    kFresh = 0,     // discovered within budget; expandable
    kSeedDone,      // checkpoint-prefix node that is not in the resumed
                    // frontier: already expanded (or budget-barred) in a
                    // previous session
    kBeyondBudget,  // kept under allow_truncation but never expanded
  };
  std::uint8_t state = kFresh;
  // The node's (representative) configuration, moved in by the winning
  // inserter before the id is published. Expanding workers read it through
  // a WorkItem they received over the level barrier, so the insertion
  // happens-before every read despite the table not yet being quiescent.
  sim::Config config;
};

using BatchTable = BatchInternTable<NodeMeta>;

// An emitted transition, pre-renumbering: target is a provisional id and the
// full Step is kept so the renumbering pass can rebuild parents_. Under
// symmetry reduction, perm records the canonicalizing permutation of this
// edge's successor (empty = identity); the renumbering pass installs the
// first-touch edge's perm as the node's discovery perm, which keeps
// discovery_perms_ aligned with the canonical parents_ no matter which
// worker interned the node first.
struct RawEdge {
  std::uint32_t to = 0;
  sim::Step step;
  std::vector<std::uint8_t> perm;
};

// One expanded node's slice [begin, end) of the owning worker's RawEdge
// pool, plus its per-expansion reduction tallies (folded into the stable
// counters only for nodes the final graph keeps expanded).
struct EdgeRange {
  std::uint32_t id = 0;  // provisional id of the expanded node
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  std::uint32_t renamed = 0;    // non-identity canonicalizations
  std::uint32_t por_skips = 0;  // enabled-but-skipped processes
  std::uint8_t had_ample = 0;   // an ample process existed (skips may be 0)
};

// Per-worker edge storage: a flat pool plus one range per expanded node.
struct EdgeSink {
  std::vector<RawEdge> pool;
  std::vector<EdgeRange> ranges;
};

// A frontier entry: just the published node's id plus the two payload
// fields the expander needs before touching the table. The configuration
// itself lives in the node's table payload (see NodeMeta::config).
struct WorkItem {
  std::uint32_t id = 0;  // provisional id
  std::uint32_t depth = 0;
  std::int64_t flag = 0;
};

constexpr std::uint32_t kUnassigned = 0xffffffffu;
// kAuto: hand off to the parallel engine once the serial probe holds this
// many nodes (below it, parallel setup + renumbering overhead beats the win).
constexpr std::uint64_t kAutoSwitchNodes = 32768;

// The parallel engine's per-worker expansion machinery: expands
// frontier items in chunks, encodes successor keys straight into a scratch
// arena, batch-interns them shard by shard, and appends raw edges to the
// worker's EdgeSink. Single-threaded; one instance per worker.
class Expander {
 public:
  Expander(const sim::Protocol* protocol, BatchTable* table,
           const Explorer::FlagFn* flag_fn, const sim::Canonicalizer* sym,
           bool por, std::uint64_t max_nodes, bool allow_truncation,
           std::atomic<bool>* truncated)
      : protocol_(protocol),
        table_(table),
        flag_fn_(flag_fn),
        sym_(sym),
        por_(por),
        max_nodes_(max_nodes),
        allow_truncation_(allow_truncation),
        truncated_(truncated) {}

  // Expands every item of `chunk`, appending one EdgeRange per item to
  // `sink` and each newly-discovered within-budget successor to `next` as
  // a WorkItem. Returns false iff the node budget was exceeded with
  // truncation disallowed (the caller must stop and report
  // RESOURCE_EXHAUSTED).
  bool expand_chunk(std::span<const WorkItem> chunk, EdgeSink* sink,
                    std::vector<WorkItem>* next) {
    scratch_.reset();
    pending_.clear();
    items_.clear();
    for (const WorkItem& item : chunk) {
      // The item arrived over the level barrier after its inserter
      // published the node, so this pre-quiescence payload read is ordered
      // after the config move-in (and entries never relocate).
      const sim::Config& config = table_->payload(item.id).config;
      ItemRec rec;
      rec.id = item.id;
      rec.begin = static_cast<std::uint32_t>(pending_.size());
      const int ample =
          por_ ? select_ample_pid(*protocol_, config, item.flag, *flag_fn_)
               : -1;
      if (ample >= 0) {
        rec.had_ample = 1;
        rec.skips = static_cast<std::uint32_t>(config.enabled_count() - 1);
      }
      const int n = static_cast<int>(config.procs.size());
      for (int pid = 0; pid < n; ++pid) {
        if (!config.enabled(pid)) continue;
        if (ample >= 0 && pid != ample) continue;
        successors_.clear();
        sim::enumerate_successors(*protocol_, config, pid, &successors_);
        for (sim::Successor& succ : successors_) {
          const std::int64_t next_flag =
              *flag_fn_ ? (*flag_fn_)(item.flag, succ.step) : item.flag;
          Pending p;
          if (sym_ != nullptr) {
            sym_->canonical_encode_into(succ.config, &sym_key_, &perm_,
                                        &canon_scratch_);
            if (!perm_.empty()) {
              ++rec.renamed;
              // Carry (and later expand) the representative, never the raw
              // successor: expansion must be a pure function of the
              // interned configuration.
              const std::vector<int> as_int(perm_.begin(), perm_.end());
              sim::apply_pid_permutation(*protocol_, as_int, &succ.config);
            }
            const std::size_t len = sym_key_.size() + 1;
            std::int64_t* words = scratch_.alloc(len);
            std::copy(sym_key_.begin(), sym_key_.end(), words);
            words[len - 1] = next_flag;
            p.cand.key = {words, len};
            p.perm = perm_;
          } else {
            const std::size_t len = succ.config.encoded_size() + 1;
            std::int64_t* words = scratch_.alloc(len);
            succ.config.encode_to(words);
            words[len - 1] = next_flag;
            p.cand.key = {words, len};
          }
          p.cand.hash = hash_words_128(p.cand.key);
          // The config rides in the candidate payload: if this candidate
          // wins the insertion race it is moved into the entry, otherwise
          // it is dropped with the candidate.
          p.cand.payload = NodeMeta{next_flag, item.depth + 1,
                                    NodeMeta::kFresh, std::move(succ.config)};
          p.flag = next_flag;
          p.depth = item.depth + 1;
          p.step = succ.step;
          pending_.push_back(std::move(p));
        }
      }
      rec.end = static_cast<std::uint32_t>(pending_.size());
      items_.push_back(rec);
    }

    // One probe pass per shard for the whole chunk: bucket, then batch.
    for (auto& bucket : buckets_) bucket.clear();
    for (Pending& p : pending_) {
      buckets_[BatchTable::shard_of(p.cand.hash)].push_back(&p.cand);
    }
    for (std::uint32_t s = 0; s < BatchTable::kShardCount; ++s) {
      if (buckets_[s].empty()) continue;
      table_->intern_batch(s, buckets_[s], &key_arena_, &tally_);
      LBSA_OBS_HISTOGRAM_OBSERVE_V("explore.intern.batch_size",
                                   buckets_[s].size());
    }

    // Resolve: raw edges in canonical within-node order; fresh discoveries
    // are queued (or budget-barred) exactly once, by their inserter.
    bool ok = true;
    for (const ItemRec& rec : items_) {
      EdgeRange range;
      range.id = rec.id;
      range.renamed = rec.renamed;
      range.por_skips = rec.skips;
      range.had_ample = rec.had_ample;
      range.begin = static_cast<std::uint32_t>(sink->pool.size());
      for (std::uint32_t i = rec.begin; i < rec.end; ++i) {
        Pending& p = pending_[i];
        sink->pool.push_back(RawEdge{p.cand.id, p.step, std::move(p.perm)});
        if (!p.cand.inserted) continue;
        // seq reproduces the serial budget cut: the first max_nodes
        // insertions (in global insertion order) are expandable.
        if (p.cand.seq > max_nodes_) {
          if (!allow_truncation_) {
            ok = false;
            continue;
          }
          table_->payload_mut(p.cand.id).state = NodeMeta::kBeyondBudget;
          truncated_->store(true, std::memory_order_relaxed);
          continue;
        }
        next->push_back(WorkItem{p.cand.id, p.depth, p.flag});
      }
      range.end = static_cast<std::uint32_t>(sink->pool.size());
      sink->ranges.push_back(range);
    }
    return ok;
  }

  const BatchTable::Tally& tally() const { return tally_; }

  // The worker's canonicalization scratch (cache attachment + tallies).
  // Exposed so the engine can attach a per-worker cache after construction
  // and drain the tallies into counters at its quiescence points.
  sim::CanonScratch* canon_scratch() { return &canon_scratch_; }
  const sim::CanonScratch& canon_scratch() const { return canon_scratch_; }

 private:
  struct Pending {
    BatchTable::Candidate cand;
    sim::Step step;
    std::vector<std::uint8_t> perm;
    std::int64_t flag = 0;
    std::uint32_t depth = 0;
  };
  struct ItemRec {
    std::uint32_t id = 0;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    std::uint32_t renamed = 0;
    std::uint32_t skips = 0;
    std::uint8_t had_ample = 0;
  };

  const sim::Protocol* protocol_;
  BatchTable* table_;
  const Explorer::FlagFn* flag_fn_;
  const sim::Canonicalizer* sym_;
  bool por_;
  std::uint64_t max_nodes_;
  bool allow_truncation_;
  std::atomic<bool>* truncated_;
  // Receives the interned key words of this worker's winning inserts; must
  // outlive every read of the table, so it lives with the worker, not the
  // chunk.
  WordArena key_arena_{1u << 15};
  // Per-chunk scratch for candidate keys; reset at every chunk.
  WordArena scratch_{1u << 14};
  BatchTable::Tally tally_;
  sim::CanonScratch canon_scratch_;
  std::vector<sim::Successor> successors_;
  std::vector<std::int64_t> sym_key_;
  std::vector<std::uint8_t> perm_;
  std::vector<Pending> pending_;
  std::vector<ItemRec> items_;
  std::array<std::vector<BatchTable::Candidate*>, BatchTable::kShardCount>
      buckets_;
};

// One worker's whole state.
struct ParallelWorker {
  explicit ParallelWorker(Expander expander) : ex(std::move(expander)) {}
  Expander ex;
  EdgeSink sink;
  std::vector<WorkItem> next;  // next-level discoveries
};

// The table contents after seeding (root or checkpoint prefix), before any
// worker runs.
struct SeedState {
  std::vector<WorkItem> frontier;
  // Resume only: prefix_prov[i] is the provisional id of canonical
  // checkpoint node i; the renumbering walk is seeded with this prefix.
  std::vector<std::uint32_t> prefix_prov;
  std::vector<std::uint8_t> root_perm;  // fresh runs: root's canonical perm
  std::uint32_t root_id = 0;
  std::uint32_t start_depth = 0;
  std::uint64_t base_transitions = 0;
  bool truncated = false;
};

StatusOr<SeedState> seed_table(const sim::Protocol& protocol,
                               BatchTable* table, WordArena* seed_arena,
                               BatchTable::Tally* tally,
                               const ExploreCheckpoint* resume,
                               const sim::Canonicalizer* sym,
                               std::int64_t initial_flag) {
  SeedState seed;
  std::vector<std::int64_t> key;
  if (resume != nullptr) {
    auto configs_or = decode_checkpoint_configs(*resume);
    if (!configs_or.is_ok()) return configs_or.status();
    std::vector<sim::Config>& configs = configs_or.value();
    const std::size_t n = configs.size();
    std::vector<std::uint8_t> in_frontier(n, 0);
    for (std::uint32_t id : resume->frontier) in_frontier[id] = 1;
    seed.prefix_prov.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      configs[i].encode_into(&key);
      key.push_back(resume->node_flags[i]);
      NodeMeta meta;
      meta.flag = resume->node_flags[i];
      meta.depth = resume->node_depths[i];
      meta.state = in_frontier[i] ? NodeMeta::kFresh : NodeMeta::kSeedDone;
      meta.config = std::move(configs[i]);  // after the encode above
      const auto res = table->intern(key, std::move(meta), seed_arena, tally);
      if (!res.inserted) {
        return invalid_argument("resume: duplicate checkpoint node");
      }
      seed.prefix_prov.push_back(res.id);
    }
    seed.frontier.reserve(resume->frontier.size());
    for (std::uint32_t id : resume->frontier) {
      seed.frontier.push_back(WorkItem{seed.prefix_prov[id],
                                       resume->node_depths[id],
                                       resume->node_flags[id]});
    }
    seed.start_depth = resume->levels_completed;
    seed.base_transitions = resume->transition_count;
    seed.truncated = resume->truncated;
  } else {
    sim::Config init = sim::initial_config(protocol);
    if (sym != nullptr) sym->canonicalize(&init, &seed.root_perm);
    init.encode_into(&key);
    key.push_back(initial_flag);
    const auto res = table->intern(
        key, NodeMeta{initial_flag, 0, NodeMeta::kFresh, std::move(init)},
        seed_arena, tally);
    seed.root_id = res.id;
    seed.frontier.push_back(WorkItem{res.id, 0, initial_flag});
  }
  return seed;
}

// The canonical graph plus canonical-indexed side data the engine needs
// afterwards (trim pass, stable-counter flush). Valid only at quiescence.
struct CanonicalBuild {
  ConfigGraph graph;
  std::vector<std::uint32_t> canon;  // provisional -> canonical id
  std::vector<std::uint8_t> state;   // NodeMeta::State per canonical id
  std::vector<std::uint8_t> expanded;  // expanded THIS session
  std::vector<std::uint32_t> renamed;  // per-expansion session tallies...
  std::vector<std::uint32_t> skips;
  std::vector<std::uint8_t> had_ample;
};

}  // namespace

namespace internal {

struct GraphBuilder {
  // Canonical renumbering walk, runnable whenever workers are quiescent.
  // Configurations come straight from the node payloads: moved out when
  // take_configs is set (final builds — the table is dead afterwards),
  // copied when not (mid-run checkpoint snapshots, whose payloads workers
  // will still expand from).
  static CanonicalBuild build(BatchTable& table,
                              const std::vector<ParallelWorker>& workers,
                              const SeedState& seed,
                              const ExploreCheckpoint* resume, bool sym_active,
                              bool truncated_flag, bool take_configs) {
    struct RawRef {
      const EdgeSink* sink = nullptr;
      const EdgeRange* range = nullptr;
    };
    std::vector<RawRef> raw(table.id_bound());
    std::uint64_t session_edges = 0;
    for (const ParallelWorker& w : workers) {
      for (const EdgeRange& r : w.sink.ranges) {
        raw[r.id] = RawRef{&w.sink, &r};
        session_edges += r.end - r.begin;
      }
    }

    CanonicalBuild out;
    ConfigGraph& graph = out.graph;
    graph.truncated_ = truncated_flag;
    graph.transition_count_ = seed.base_transitions + session_edges;
    const std::size_t total = static_cast<std::size_t>(table.size());
    graph.nodes_.reserve(total);
    graph.edges_.reserve(total);
    graph.parents_.reserve(total);
    out.canon.assign(table.id_bound(), kUnassigned);
    std::vector<std::uint32_t> order;  // canonical BFS queue (provisional)
    order.reserve(total);

    auto node_config = [&](std::uint32_t prov) -> sim::Config {
      NodeMeta& meta = table.payload_mut(prov);
      if (take_configs) return std::move(meta.config);
      return meta.config;
    };

    if (resume != nullptr) {
      // The checkpointed prefix IS the canonical prefix: re-seat it
      // verbatim, then let first-touch discovery number this session's
      // nodes — it continues the serial numbering exactly (frontier nodes
      // sit in the prefix; their session edges are walked in canonical
      // order below).
      const std::size_t n = seed.prefix_prov.size();
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t prov = seed.prefix_prov[i];
        out.canon[prov] = static_cast<std::uint32_t>(i);
        order.push_back(prov);
        graph.nodes_.push_back(Node{node_config(prov), resume->node_flags[i],
                                    resume->node_depths[i]});
        graph.parents_.emplace_back(resume->parents[i],
                                    resume->parent_steps[i]);
      }
      graph.edges_ = resume->edges;
      graph.discovery_perms_ = resume->discovery_perms;
    } else {
      out.canon[seed.root_id] = 0;
      order.push_back(seed.root_id);
      graph.nodes_.push_back(Node{node_config(seed.root_id),
                                  table.payload(seed.root_id).flag, 0});
      graph.edges_.emplace_back();
      graph.parents_.emplace_back(0, sim::Step{});
      if (sym_active) graph.discovery_perms_.push_back(seed.root_perm);
    }

    for (std::size_t i = 0; i < order.size(); ++i) {
      const std::uint32_t u = order[i];
      const std::uint32_t cu = static_cast<std::uint32_t>(i);
      const RawRef ref = raw[u];
      if (ref.range == nullptr) continue;  // not expanded (this session)
      for (std::uint32_t e = ref.range->begin; e < ref.range->end; ++e) {
        const RawEdge& edge = ref.sink->pool[e];
        if (out.canon[edge.to] == kUnassigned) {
          out.canon[edge.to] = static_cast<std::uint32_t>(graph.nodes_.size());
          const NodeMeta& meta = table.payload(edge.to);
          // Level-synchronous discovery makes stored depths exact; the
          // canonical parent is one level up by construction.
          LBSA_CHECK(meta.depth == graph.nodes_[cu].depth + 1);
          graph.nodes_.push_back(
              Node{node_config(edge.to), meta.flag, meta.depth});
          graph.edges_.emplace_back();
          graph.parents_.emplace_back(cu, edge.step);
          // The canonical discovery perm is the first-touch edge's perm
          // (the racing worker's perm may belong to a different parent
          // edge).
          if (sym_active) graph.discovery_perms_.push_back(edge.perm);
          order.push_back(edge.to);
        }
        graph.edges_[cu].push_back(
            Edge{out.canon[edge.to], edge.step.pid, edge.step.action.kind});
      }
    }
    // Every interned node has an in-edge from an expanded node (or is the
    // root / checkpoint prefix), so the walk must have covered the table.
    LBSA_CHECK(graph.nodes_.size() == total);
    LBSA_CHECK(graph.nodes_.size() == graph.edges_.size() &&
               graph.nodes_.size() == graph.parents_.size());

    out.state.assign(total, NodeMeta::kFresh);
    out.expanded.assign(total, 0);
    out.renamed.assign(total, 0);
    out.skips.assign(total, 0);
    out.had_ample.assign(total, 0);
    for (std::size_t i = 0; i < order.size(); ++i) {
      out.state[i] = table.payload(order[i]).state;
    }
    for (const ParallelWorker& w : workers) {
      for (const EdgeRange& r : w.sink.ranges) {
        const std::uint32_t c = out.canon[r.id];
        out.expanded[c] = 1;
        out.renamed[c] = r.renamed;
        out.skips[c] = r.por_skips;
        out.had_ample[c] = r.had_ample;
      }
    }
    return out;
  }

  // Mid-level stop (cancel/deadline tripped inside a level): trims the
  // walked graph back to the deepest level L such that every node of
  // depth < L is expanded — exactly the state a serial run interrupted at
  // boundary L would return (for non-truncated runs; a truncated prefix is
  // schedule-dependent for every engine). Returns false (untouched) when
  // the graph is complete. Walk depths are non-decreasing in canonical id
  // order (FIFO walk), so the prefix is literally an array prefix.
  static bool trim_to_complete_prefix(CanonicalBuild* b,
                                      bool prefix_truncated) {
    ConfigGraph& graph = b->graph;
    std::uint32_t level = std::numeric_limits<std::uint32_t>::max();
    for (std::size_t i = 0; i < graph.nodes_.size(); ++i) {
      if (b->state[i] == NodeMeta::kFresh && !b->expanded[i]) {
        level = std::min(level, graph.nodes_[i].depth);
      }
    }
    if (level == std::numeric_limits<std::uint32_t>::max()) return false;

    std::size_t keep = graph.nodes_.size();
    for (std::size_t i = 0; i < graph.nodes_.size(); ++i) {
      if (graph.nodes_[i].depth > level) {
        keep = i;
        break;
      }
    }
    graph.nodes_.resize(keep);
    graph.edges_.resize(keep);
    graph.parents_.resize(keep);
    if (!graph.discovery_perms_.empty()) graph.discovery_perms_.resize(keep);
    graph.pending_frontier_.clear();
    bool kept_beyond = false;
    std::uint64_t transitions = 0;
    for (std::size_t i = 0; i < keep; ++i) {
      // Depth-L nodes may have been expanded already; a serial run
      // interrupted at boundary L has not expanded any of them, so their
      // edges (and everything those edges discovered, dropped by the resize
      // above) are discarded and they return to the pending frontier.
      if (graph.nodes_[i].depth == level) graph.edges_[i].clear();
      transitions += graph.edges_[i].size();
      if (b->state[i] == NodeMeta::kBeyondBudget) kept_beyond = true;
      if (graph.nodes_[i].depth == level &&
          b->state[i] == NodeMeta::kFresh) {
        graph.pending_frontier_.push_back(static_cast<std::uint32_t>(i));
      }
    }
    graph.transition_count_ = transitions;
    graph.truncated_ = kept_beyond || prefix_truncated;
    graph.interrupted_ = true;
    graph.levels_completed_ = level;
    return true;
  }
};

}  // namespace internal

namespace {

// Stable explorer counters, derived from the canonical graph so totals are
// byte-identical to the serial engine no matter how expansion was scheduled —
// including registration: a counter the serial engine would have ADDed
// (even with 0) is ADDed here, and one it never touches is not.
// level_limit bounds which nodes' per-expansion tallies count: UINT32_MAX
// for complete / level-boundary graphs, the trimmed level for a graph
// trimmed after a mid-level stop (whose partial level's expansions were
// discarded).
void add_stable_counters(const CanonicalBuild& b, const ConfigGraph& graph,
                         const SeedState& seed, bool fresh_run,
                         std::uint32_t level_limit) {
  const std::uint64_t prefix = seed.prefix_prov.size();
  const std::uint64_t new_nodes = graph.nodes().size() - prefix;
  if (new_nodes > 0) LBSA_OBS_COUNTER_ADD("explore.nodes", new_nodes);
  const std::uint64_t new_transitions =
      graph.transition_count() - seed.base_transitions;
  if (new_transitions > 0) {
    LBSA_OBS_COUNTER_ADD("explore.transitions", new_transitions);
  }
  // The serial engine counts a rename per canonicalized successor (duplicate
  // or not) plus one for the root of a fresh run.
  std::uint64_t renamed = fresh_run && !seed.root_perm.empty() ? 1 : 0;
  std::uint64_t skips = 0;
  bool any_ample = false;
  for (std::size_t i = 0; i < graph.nodes().size(); ++i) {
    if (graph.nodes()[i].depth >= level_limit) continue;
    renamed += b.renamed[i];
    skips += b.skips[i];
    any_ample = any_ample || b.had_ample[i] != 0;
  }
  if (renamed > 0) LBSA_OBS_COUNTER_ADD("explore.sym.renamed", renamed);
  if (any_ample) LBSA_OBS_COUNTER_ADD("explore.por.skips", skips);
}

// Intern-table totals (quiescent). Probe counts depend on the insertion
// interleaving and the serial engine has no intern table at all, so every
// explore.intern.* metric is volatile by construction.
void add_intern_metrics(const BatchTable& table,
                        const BatchTable::Tally& tally) {
  if (!obs::metrics_enabled()) return;
  const auto stats = table.stats();
  LBSA_OBS_COUNTER_ADD_V("explore.intern.probes", tally.probes);
  LBSA_OBS_COUNTER_ADD_V("explore.intern.cas_retries", tally.cas_retries);
  LBSA_OBS_GAUGE_SET_V("explore.intern.entries",
                       static_cast<std::int64_t>(stats.entries));
  LBSA_OBS_GAUGE_SET_V("explore.intern.slots",
                       static_cast<std::int64_t>(stats.slots));
  LBSA_OBS_GAUGE_SET_V("explore.intern.max_shard_entries",
                       static_cast<std::int64_t>(stats.max_shard_entries));
  LBSA_OBS_GAUGE_SET_V("explore.intern.growths",
                       static_cast<std::int64_t>(stats.growths));
  LBSA_OBS_HISTOGRAM_OBSERVE_V(
      "explore.intern.probe_length",
      stats.entries == 0 ? 0 : tally.probes / stats.entries);
}

// Canonical ids of the pending frontier (ascending — the serial deque
// order), from a post-walk canon map.
std::vector<std::uint32_t> canonical_frontier(
    const std::vector<WorkItem>& frontier,
    const std::vector<std::uint32_t>& canon) {
  std::vector<std::uint32_t> pending;
  pending.reserve(frontier.size());
  for (const WorkItem& item : frontier) pending.push_back(canon[item.id]);
  std::sort(pending.begin(), pending.end());
  return pending;
}

void name_trace_lanes(int threads) {
  if (!obs::tracing_enabled()) return;
  obs::Tracer::global().set_lane_name(0, "coordinator");
  for (int t = 0; t < threads; ++t) {
    obs::Tracer::global().set_lane_name(t + 1, "worker " + std::to_string(t));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Level-synchronous parallel engine.
// ---------------------------------------------------------------------------

StatusOr<ConfigGraph> Explorer::explore_parallel(
    const ExploreOptions& options, int threads, const FlagFn& flag_fn,
    std::int64_t initial_flag, const sim::Canonicalizer* sym, bool por,
    std::uint64_t fingerprint) const {
  const sim::Protocol& protocol = *protocol_;
  BatchTable table;
  std::atomic<bool> exhausted{false};  // budget hit, truncation not allowed
  std::atomic<bool> truncated{false};

  WordArena seed_arena;
  BatchTable::Tally seed_tally;
  auto seed_or = seed_table(protocol, &table, &seed_arena, &seed_tally,
                            options.resume, sym, initial_flag);
  if (!seed_or.is_ok()) return seed_or.status();
  SeedState seed = std::move(seed_or).value();
  truncated.store(seed.truncated, std::memory_order_relaxed);
  std::vector<WorkItem> frontier = std::move(seed.frontier);

  name_trace_lanes(threads);

  std::vector<ParallelWorker> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back(Expander(&protocol, &table, &flag_fn, sym, por,
                                  options.max_nodes, options.allow_truncation,
                                  &truncated));
    attach_canon_cache(options, sym, static_cast<std::size_t>(t),
                       workers.back().ex.canon_scratch());
  }

  std::atomic<std::size_t> cursor{0};
  std::uint32_t depth = seed.start_depth;  // level currently expanding
  std::atomic<bool> done{false};
  // Mid-level lifecycle stop: workers poll cancel/deadline at every chunk
  // claim (the coordinator only looks at level boundaries) and raise this
  // flag, so one huge level cannot blow past a request deadline. The
  // partially expanded level is discarded by the trim pass below — the
  // result is the deepest complete level prefix, same as a boundary stop.
  const bool lifecycle_armed =
      options.cancel != nullptr || options.deadline != Deadline{};
  std::atomic<bool> lifecycle_stop{false};

  std::barrier<> level_start(threads + 1);
  std::barrier<> level_end(threads + 1);

  auto worker_main = [&](int widx) {
    ParallelWorker& w = workers[static_cast<std::size_t>(widx)];
    CanonSeen canon_seen;
    while (true) {
      level_start.arrive_and_wait();
      if (done.load(std::memory_order_acquire)) return;
      {
        // Per-worker-thread lane; "worker" events scale with the pool size
        // and are excluded from trace-count determinism comparisons. The
        // span closes before the level-end barrier, so the wait for the
        // level's slowest worker shows as time outside it.
        obs::Span worker_span("explore.worker", obs::kCatWorker, widx + 1);
        std::uint64_t expanded = 0;
        while (!exhausted.load(std::memory_order_relaxed) &&
               !lifecycle_stop.load(std::memory_order_relaxed)) {
          const std::size_t begin =
              cursor.fetch_add(kChunk, std::memory_order_relaxed);
          if (begin >= frontier.size()) break;
          // Work-chunk boundary lifecycle poll (every kChunk items).
          if (lifecycle_armed &&
              ((options.cancel != nullptr && options.cancel->cancelled()) ||
               deadline_passed(options.deadline))) {
            lifecycle_stop.store(true, std::memory_order_relaxed);
            break;
          }
          const std::size_t end = std::min(frontier.size(), begin + kChunk);
          const bool ok = w.ex.expand_chunk(
              std::span<const WorkItem>(frontier.data() + begin, end - begin),
              &w.sink, &w.next);
          expanded += end - begin;
          if (!ok) exhausted.store(true, std::memory_order_relaxed);
        }
        // Level boundary: drain this worker's canonicalization tallies
        // into the metrics registry.
        if (sym != nullptr) {
          add_canon_metrics(*w.ex.canon_scratch(), &canon_seen);
        }
        worker_span.arg("expanded", static_cast<std::int64_t>(expanded));
      }
      level_end.arrive_and_wait();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker_main, t);

  bool interrupted = false;
  bool midlevel = false;  // interruption landed inside a level
  Status checkpoint_status = Status::ok();
  while (!frontier.empty() && !exhausted.load(std::memory_order_relaxed)) {
    // Top of loop == level boundary: workers quiescent, every level < depth
    // fully expanded, `frontier` holding exactly the depth-`depth` nodes.
    const std::uint32_t session_levels = depth - seed.start_depth;
    if (stop_reason(options, session_levels) != StopReason::kNone) {
      interrupted = true;
      break;
    }
    if (!options.checkpoint_path.empty() &&
        options.checkpoint_every_levels > 0 && session_levels > 0 &&
        session_levels % options.checkpoint_every_levels == 0) {
      const CanonicalBuild snapshot = internal::GraphBuilder::build(
          table, workers, seed, options.resume, sym != nullptr,
          truncated.load(std::memory_order_relaxed), /*take_configs=*/false);
      checkpoint_status = write_checkpoint(
          snapshot.graph, canonical_frontier(frontier, snapshot.canon), depth,
          fingerprint, options, flag_fn != nullptr, initial_flag);
      if (!checkpoint_status.is_ok()) break;
    }
    // Mirrors the serial engine's one "explore.level" phase span per level.
    obs::Span level_span("explore.level", obs::kCatPhase, /*lane=*/0);
    level_span.arg("level", depth);
    level_span.arg("nodes", static_cast<std::int64_t>(frontier.size()));
    cursor.store(0, std::memory_order_relaxed);
    level_start.arrive_and_wait();
    // Workers expand this level...
    level_end.arrive_and_wait();
    if (lifecycle_stop.load(std::memory_order_relaxed)) {
      // A worker tripped cancel/deadline mid-level: this level is partially
      // expanded, so skip the merge and let the trim pass roll the build
      // back to the last complete level boundary.
      interrupted = true;
      midlevel = true;
      break;
    }
    std::vector<WorkItem> next;
    for (ParallelWorker& w : workers) {
      // Cross-worker concatenation order is arbitrary; the renumbering pass
      // is insensitive to it.
      std::move(w.next.begin(), w.next.end(), std::back_inserter(next));
      w.next.clear();
    }
    frontier = std::move(next);
    ++depth;
  }
  done.store(true, std::memory_order_release);
  level_start.arrive_and_wait();
  for (std::thread& t : pool) t.join();
  if (!checkpoint_status.is_ok()) return checkpoint_status;

  BatchTable::Tally tally = seed_tally;
  for (const ParallelWorker& w : workers) tally += w.ex.tally();
  add_intern_metrics(table, tally);

  if (exhausted.load()) {
    return resource_exhausted("explore: node budget exceeded (" +
                              std::to_string(options.max_nodes) + ")");
  }

  // --- Canonical renumbering (single-threaded, at quiescence). ---
  CanonicalBuild built = internal::GraphBuilder::build(
      table, workers, seed, options.resume, sym != nullptr,
      truncated.load(std::memory_order_relaxed), /*take_configs=*/true);
  // A mid-level stop leaves the current level partially expanded; trim back
  // to the last complete level boundary (same state a boundary-time stop
  // would have produced).
  bool trimmed = false;
  if (midlevel) {
    trimmed =
        internal::GraphBuilder::trim_to_complete_prefix(&built, seed.truncated);
  }
  ConfigGraph graph = std::move(built.graph);
  if (midlevel && !trimmed) {
    // The poll tripped after every frontier node was already expanded: the
    // graph is complete after all.
    interrupted = false;
  }
  if (interrupted) {
    if (!midlevel) {
      graph.interrupted_ = true;
      graph.levels_completed_ = depth;
      graph.pending_frontier_ = canonical_frontier(frontier, built.canon);
    }  // else: trim_to_complete_prefix already set the interruption state.
    if (!options.checkpoint_path.empty()) {
      const Status written = write_checkpoint(
          graph, graph.pending_frontier_, graph.levels_completed_, fingerprint,
          options, flag_fn != nullptr, initial_flag);
      if (!written.is_ok()) return written;
    }
  } else {
    graph.levels_completed_ =
        graph.nodes_.empty() ? 0 : graph.nodes_.back().depth + 1;
  }
  add_stable_counters(built, graph, seed, options.resume == nullptr,
                      trimmed ? graph.levels_completed_
                              : std::numeric_limits<std::uint32_t>::max());
  record_graph_metrics(graph);
  return graph;
}

std::vector<sim::Step> ConfigGraph::path_to(std::uint32_t id) const {
  if (canonicalizer_ == nullptr) {
    std::vector<sim::Step> steps;
    std::uint32_t cur = id;
    while (cur != root()) {
      const auto& [parent, step] = parents_[cur];
      steps.push_back(step);
      cur = parent;
    }
    std::reverse(steps.begin(), steps.end());
    return steps;
  }

  // Symmetry-reduced graph: every recorded step acted in its parent's
  // *representative* space, so the raw parent chain is generally not an
  // execution of the protocol. Lift it: maintain σ, the renaming that maps
  // the concrete run being rebuilt onto the stored representative of the
  // current node (σ starts as the root's canonicalizing perm and composes
  // each node's discovery perm on the way down); a representative step by
  // pid r lifts to a concrete step by σ⁻¹(r) with the same outcome choice
  // (renaming maps outcome lists elementwise in order — see sim/symmetry.h).
  std::vector<std::uint32_t> chain;  // nodes after the root, in path order
  for (std::uint32_t cur = id; cur != root(); cur = parents_[cur].first) {
    chain.push_back(cur);
  }
  std::reverse(chain.begin(), chain.end());

  const sim::Protocol& protocol = *lift_protocol_;
  const int n = protocol.process_count();
  std::vector<int> sigma(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) sigma[static_cast<std::size_t>(p)] = p;
  auto compose = [&](const std::vector<std::uint8_t>& pi) {
    if (pi.empty()) return;  // identity
    for (int p = 0; p < n; ++p) {
      sigma[static_cast<std::size_t>(p)] = static_cast<int>(
          pi[static_cast<std::size_t>(sigma[static_cast<std::size_t>(p)])]);
    }
  };
  compose(discovery_perms_[root()]);

  sim::Config concrete = sim::initial_config(protocol);
  std::vector<sim::Step> steps;
  steps.reserve(chain.size());
  for (std::uint32_t v : chain) {
    const sim::Step& rep_step = parents_[v].second;
    int concrete_pid = -1;
    for (int p = 0; p < n; ++p) {
      if (sigma[static_cast<std::size_t>(p)] == rep_step.pid) {
        concrete_pid = p;
        break;
      }
    }
    LBSA_CHECK(concrete_pid >= 0);
    steps.push_back(sim::apply_step(protocol, &concrete, concrete_pid,
                                    rep_step.outcome_choice));
    compose(discovery_perms_[v]);
  }
  // Certify the lift: renaming the concrete endpoint by σ must reproduce
  // the stored representative bit for bit.
  sim::Config renamed = concrete;
  sim::apply_pid_permutation(protocol, sigma, &renamed);
  LBSA_CHECK_MSG(renamed == nodes_[static_cast<std::size_t>(id)].config,
                 "symmetry lift failed to land on the representative");
  return steps;
}

std::uint64_t ConfigGraph::full_node_estimate() const {
  if (canonicalizer_ == nullptr) {
    return static_cast<std::uint64_t>(nodes_.size());
  }
  std::uint64_t total = 0;
  for (const Node& node : nodes_) {
    total += canonicalizer_->orbit_size(node.config);
  }
  return total;
}

const char* reduction_name(Reduction reduction) {
  switch (reduction) {
    case Reduction::kNone:
      return "none";
    case Reduction::kSymmetry:
      return "symmetry";
    case Reduction::kPor:
      return "por";
    case Reduction::kBoth:
      return "both";
  }
  return "none";
}

StatusOr<Reduction> parse_reduction(const std::string& name) {
  if (name == "none") return Reduction::kNone;
  if (name == "symmetry") return Reduction::kSymmetry;
  if (name == "por") return Reduction::kPor;
  if (name == "both") return Reduction::kBoth;
  return invalid_argument("unknown reduction '" + name +
                          "' (known: none, symmetry, por, both)");
}

const char* engine_name(ExploreEngine engine) {
  switch (engine) {
    case ExploreEngine::kAuto:
      return "auto";
    case ExploreEngine::kSerial:
      return "serial";
    case ExploreEngine::kParallel:
      return "parallel";
  }
  return "auto";
}

StatusOr<ExploreEngine> parse_engine(const std::string& name) {
  if (name == "auto") return ExploreEngine::kAuto;
  if (name == "serial") return ExploreEngine::kSerial;
  if (name == "parallel") return ExploreEngine::kParallel;
  return invalid_argument("unknown engine '" + name +
                          "' (known: auto, serial, parallel)");
}

StatusOr<ConfigGraph> Explorer::explore(const ExploreOptions& options,
                                        FlagFn flag_fn,
                                        std::int64_t initial_flag) const {
  const int threads = resolve_threads(options);

  const bool want_sym = options.reduction == Reduction::kSymmetry ||
                        options.reduction == Reduction::kBoth;
  const bool por = options.reduction == Reduction::kPor ||
                   options.reduction == Reduction::kBoth;
  std::shared_ptr<const sim::Canonicalizer> sym;
  if (want_sym) {
    sim::SymmetrySpec spec = protocol_->symmetry();
    if (!spec.trivial()) {
      if (flag_fn && !options.flag_fn_symmetric) {
        return invalid_argument(
            "explore: flag function combined with symmetry reduction on a "
            "protocol with a non-trivial symmetry group; declare invariance "
            "via ExploreOptions::flag_fn_symmetric or drop to "
            "reduction=none/por");
      }
      // Reuse a caller-built canonicalizer (the hierarchy sweep shares one
      // per cell, with its precomputed group and orbit tables) only when it
      // was built for this exact protocol instance — the contract on
      // ExploreOptions::canonicalizer. Anything else falls back to a fresh
      // build.
      if (options.canonicalizer != nullptr &&
          options.canonicalizer->protocol().get() == protocol_.get()) {
        sym = options.canonicalizer;
      } else {
        sym = std::make_shared<const sim::Canonicalizer>(protocol_,
                                                         std::move(spec));
      }
      LBSA_OBS_GAUGE_MAX("explore.sym.group_size",
                         static_cast<std::int64_t>(sym->group_size()));
    }
  }

  const std::uint64_t fingerprint = explore_fingerprint(
      *protocol_, options, flag_fn != nullptr, initial_flag);
  if (options.resume != nullptr) {
    const ExploreCheckpoint& cp = *options.resume;
    if (cp.fingerprint != fingerprint) {
      const std::string suffix =
          cp.task_label.empty() ? std::string()
                                : " (checkpoint task: '" + cp.task_label + "')";
      // Name the mismatched knob when an echoed parameter disagrees; fall
      // back to the generic fingerprint message (different protocol/task).
      if (cp.reduction != options.reduction) {
        return failed_precondition(
            std::string("resume: checkpoint was written under reduction '") +
            reduction_name(cp.reduction) + "', this run requests '" +
            reduction_name(options.reduction) + "'" + suffix);
      }
      if (cp.max_nodes != options.max_nodes) {
        return failed_precondition(
            "resume: checkpoint node budget " + std::to_string(cp.max_nodes) +
            " does not match requested " + std::to_string(options.max_nodes) +
            suffix);
      }
      if (cp.allow_truncation != options.allow_truncation) {
        return failed_precondition(
            "resume: checkpoint allow_truncation disagrees with this run" +
            suffix);
      }
      if (cp.has_flag_fn != (flag_fn != nullptr)) {
        return failed_precondition(
            std::string("resume: checkpoint was written ") +
            (cp.has_flag_fn ? "with" : "without") +
            " a path-flag function, this run is the opposite" + suffix);
      }
      if (cp.initial_flag != initial_flag) {
        return failed_precondition(
            "resume: checkpoint initial flag " +
            std::to_string(cp.initial_flag) + " does not match requested " +
            std::to_string(initial_flag) + suffix);
      }
      return failed_precondition(
          "resume: checkpoint fingerprint mismatch — written for a "
          "different protocol/task or option set" +
          suffix);
    }
    if (cp.node_words.empty()) {
      return invalid_argument("resume: checkpoint has no nodes");
    }
    if ((sym != nullptr) != !cp.discovery_perms.empty()) {
      return invalid_argument(
          "resume: checkpoint discovery permutations disagree with the "
          "active symmetry reduction");
    }
    for (std::uint32_t id : cp.frontier) {
      if (cp.node_depths[id] != cp.levels_completed) {
        return invalid_argument(
            "resume: frontier node depth disagrees with levels_completed");
      }
    }
  }

  LBSA_OBS_COUNTER_ADD("explore.runs", 1);
  LBSA_OBS_SPAN(run_span, "explore.run", obs::kCatTask, /*lane=*/0);

  // Effective options for the engines: install a private orbit-cache pool
  // when symmetry is on and the caller did not share one. The pool only
  // accelerates canonical_encode_into — it never shapes the graph — so it
  // deliberately stays outside the fingerprint. Small groups are exempt:
  // below ~64 elements the pruned scan is already cheaper than hashing the
  // raw encoding plus the hit-verify memcmp, so a cache is pure overhead
  // (measured on dac5-sym, group 24). Callers that pass an explicit pool —
  // the hierarchy sweep, the equivalence tests — are always honored.
  constexpr std::size_t kCanonCacheMinGroup = 64;
  ExploreOptions opts = options;
  if (sym != nullptr && opts.canon_cache_pool == nullptr &&
      opts.canon_cache_bytes > 0 &&
      sym->group_size() >= kCanonCacheMinGroup) {
    opts.canon_cache_pool =
        std::make_shared<sim::CanonCachePool>(opts.canon_cache_bytes);
  }

  ExploreEngine used = options.engine;
  bool auto_switched = false;
  StatusOr<ConfigGraph> result = [&]() -> StatusOr<ConfigGraph> {
    switch (opts.engine) {
      case ExploreEngine::kSerial:
        return explore_serial(opts, flag_fn, initial_flag, sym.get(), por,
                              fingerprint);
      case ExploreEngine::kParallel:
        return explore_parallel(opts, threads, flag_fn, initial_flag,
                                sym.get(), por, fingerprint);
      case ExploreEngine::kAuto:
        break;
    }
    // kAuto. One thread: nothing to hand off to.
    if (threads <= 1) {
      used = ExploreEngine::kSerial;
      return explore_serial(opts, flag_fn, initial_flag, sym.get(), por,
                            fingerprint);
    }
    // Periodic checkpoints count levels from the session start; a probe
    // handoff would restart that count mid-run, so one engine runs it all.
    if (opts.checkpoint_every_levels > 0) {
      used = ExploreEngine::kParallel;
      return explore_parallel(opts, threads, flag_fn, initial_flag,
                              sym.get(), por, fingerprint);
    }
    // Serial probe: small graphs finish right here with zero parallel
    // overhead; big ones hand their canonical prefix to the parallel engine
    // through an in-memory checkpoint.
    bool switched = false;
    auto probe = explore_serial(opts, flag_fn, initial_flag, sym.get(),
                                por, fingerprint, kAutoSwitchNodes, &switched);
    if (!probe.is_ok() || !switched) {
      used = ExploreEngine::kSerial;
      return probe;
    }
    auto_switched = true;
    LBSA_OBS_COUNTER_ADD_V("explore.auto.switches", 1);
    const ConfigGraph& prefix = probe.value();
    const std::uint32_t probe_levels =
        prefix.levels_completed() -
        (options.resume != nullptr ? options.resume->levels_completed : 0);
    const ExploreCheckpoint handoff = checkpoint_from_graph(
        prefix, prefix.pending_frontier(), prefix.levels_completed(),
        fingerprint, options, flag_fn != nullptr, initial_flag);
    // The continuation inherits `opts`, pool included: the probe warmed
    // worker 0's cache and the parallel engine's worker 0 picks it up.
    ExploreOptions cont = opts;
    cont.resume = &handoff;
    // stop_reason() fires before the switch check, so when max_levels is
    // set the probe stopped strictly short of it: remaining >= 1.
    if (options.max_levels > 0) cont.max_levels -= probe_levels;
    used = ExploreEngine::kParallel;
    return explore_parallel(cont, threads, flag_fn, initial_flag, sym.get(),
                            por, fingerprint);
  }();

  if (result.is_ok()) {
    ConfigGraph& graph = result.value();
    graph.reduction_ = options.reduction;
    graph.engine_used_ = used;
    graph.auto_switched_ = auto_switched;
    graph.canonicalizer_ = std::move(sym);
    graph.lift_protocol_ = protocol_;
  }
  return result;
}

}  // namespace lbsa::modelcheck
