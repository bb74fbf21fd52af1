// Exhaustive reachability analysis over protocol configurations.
//
// The Explorer enumerates *every* configuration reachable from the initial
// one — over all interleavings of process steps and all nondeterministic
// object outcomes — and materializes the transition graph. This is the
// machine-checkable counterpart of the paper's proof language: "configuration
// C reachable from I", "history H applicable to C", "step e_p of p".
//
// Optionally, exploration can be *augmented* with a path flag: a small
// integer folded along every path (e.g. "has any process other than p taken
// a step yet?"), in which case graph nodes are (configuration, flag) pairs.
// The DAC Nontriviality property needs exactly this, since it constrains the
// history that leads to a configuration, not the configuration itself.
#ifndef LBSA_MODELCHECK_EXPLORER_H_
#define LBSA_MODELCHECK_EXPLORER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "base/arena.h"
#include "base/status.h"
#include "modelcheck/cancel.h"
#include "sim/config.h"
#include "sim/protocol.h"
#include "sim/symmetry.h"

namespace lbsa::modelcheck {

struct ExploreCheckpoint;  // modelcheck/checkpoint.h

// Where each BFS level generates its successors. There is one explorer: a
// level-synchronous BFS that interns successors on the calling thread in
// canonical order. The engine only decides which levels hand successor
// generation (step, flag fold, encode or canonicalize, hash) to a pool of
// ExploreOptions::threads workers (docs/checking.md, "Engine selection"):
//   kSerial — never; every level runs inline on the calling thread.
//   kParallel — every level, however narrow (the equivalence suites use it
//     to exercise the pool on small graphs).
//   kAuto — levels of at least 1,024 nodes, when threads > 1; narrower
//     levels run inline, where waking workers costs more than it saves.
// The graph does not depend on the engine or the thread count.
enum class ExploreEngine {
  kAuto = 0,
  kSerial,
  kParallel,
};

// Stable short name for CLI flags and run reports: "auto", "serial",
// "parallel".
const char* engine_name(ExploreEngine engine);
// Inverse of engine_name(); INVALID_ARGUMENT on anything else.
StatusOr<ExploreEngine> parse_engine(const std::string& name);

// State-space reductions (docs/checking.md, "State-space reduction"):
//   kSymmetry — intern only the lexicographically-minimal pid renaming of
//     each configuration, exploring the quotient graph under the protocol's
//     declared symmetry() group. No-op for protocols with a trivial group.
//   kPor — partial-order reduction: when some process's next action is a
//     deterministic, purely-local step (decide/abort — no shared-object
//     invoke) that also preserves the path flag, expand only the smallest
//     such process. Local steps commute with every other step and strictly
//     shrink the enabled set, so reachable decision patterns (and therefore
//     property verdicts and valence universes) are preserved.
//   kBoth — compose the two.
// Complete reduced graphs remain bit-identical across engines and thread
// counts; the cross-validation suite certifies verdict equivalence against
// the unreduced graph.
enum class Reduction {
  kNone = 0,
  kSymmetry,
  kPor,
  kBoth,
};

// Stable short name for CLI flags and run reports: "none", "symmetry",
// "por", "both".
const char* reduction_name(Reduction reduction);
// Inverse of reduction_name(); INVALID_ARGUMENT on anything else.
StatusOr<Reduction> parse_reduction(const std::string& name);

// Upper bound on every worker-thread count the library and its tools
// accept (ExploreOptions::threads, FuzzOptions::threads, the CLIs'
// --threads): far above any host this runs on, and far below a count that
// would exhaust memory or thread ids before the first worker starts.
inline constexpr int kMaxThreads = 256;

// The thread count a `threads` setting stands for: itself when positive,
// else hardware_concurrency clamped to [1, kMaxThreads]. The explorer, the
// fuzzer and the task checks resolve ExploreOptions::threads and
// FuzzOptions::threads through it, after rejecting a count above
// kMaxThreads.
int resolve_threads(int threads);

struct ExploreOptions {
  // Hard cap on distinct (config, flag) nodes; exceeding it returns
  // RESOURCE_EXHAUSTED — unless allow_truncation is set, in which case a
  // partial graph is returned with ConfigGraph::truncated() == true.
  // Truncated nodes are KEPT in the graph (so every emitted edge has a
  // valid target and every node replays from the root) but never expanded.
  std::uint64_t max_nodes = 5'000'000;
  // Opt-in partial exploration for instances beyond exhaustive reach.
  // Soundness note: on a truncated graph, property VIOLATIONS found are
  // real (every node is reachable), but their absence certifies only the
  // explored region; valence analysis is likewise a lower bound on
  // reachable decisions. The budget is applied in canonical discovery
  // order, so a truncated graph is the same for every engine and thread
  // count.
  bool allow_truncation = false;
  // Successor-generation workers for pooled levels; 0 =
  // hardware_concurrency. The graph is the same for every thread count.
  // More than kMaxThreads is INVALID_ARGUMENT.
  int threads = 0;
  ExploreEngine engine = ExploreEngine::kAuto;
  // Which state-space reduction to apply (see Reduction above).
  Reduction reduction = Reduction::kNone;
  // Required when combining a flag_fn with symmetry reduction on a protocol
  // whose symmetry group is non-trivial: asserts the flag function is
  // invariant under the group (folding a renamed step yields the same flag
  // as folding the original, for every group element). explore() returns
  // INVALID_ARGUMENT if a flag_fn meets an active symmetry reduction
  // without this declaration.
  bool flag_fn_symmetric = false;

  // --- canonicalization cache (symmetry reduction only) ---
  // Per-worker byte budget for the lossy orbit cache that short-circuits
  // repeated canonical searches (sim::CanonCache; docs/checking.md, "State-
  // space reduction"). 0 disables caching. Hits are exact (full raw-key
  // verify), so the cache changes only speed, never the produced graph —
  // the engine-equivalence matrix runs with it on and off and asserts
  // bit-identical results. Activity is published as the `explore.canon.*`
  // counters.
  std::size_t canon_cache_bytes = std::size_t{4} << 20;  // 4 MiB per worker
  // Optional shared pool keeping per-worker caches warm across repeated
  // explorations (the hierarchy sweep's per-cell checks and cross-checks
  // set one per sweep). Null = a private pool per explore() call.
  // Universe-fingerprint gating (CanonCache::ensure_universe) makes sharing
  // across different protocols safe: a universe switch clears, a rerun of
  // the same universe stays warm.
  std::shared_ptr<sim::CanonCachePool> canon_cache_pool = {};
  // Reuse a pre-built canonicalizer instead of constructing a fresh one
  // (the hierarchy sweep re-checks the same instance under several modes,
  // and the soundness gate + group enumeration are pure functions of the
  // (protocol, spec) pair). Honored only if it was built for this exact
  // protocol instance with the protocol's declared spec; anything else
  // falls back to constructing.
  std::shared_ptr<const sim::Canonicalizer> canonicalizer = {};

  // --- run lifecycle (docs/checking.md, "Long runs") ---
  // cancel/deadline are polled INSIDE levels, before every work chunk (64
  // frontier nodes) on the calling thread and on each worker, so a trip
  // stops the run promptly even mid-way through a wide level. Stopping
  // still only ever happens at a BFS level boundary — the one point that
  // preserves the canonical-prefix guarantee: partially expanded work is
  // rolled back to the last completed level. An interrupted graph is
  // therefore bit-identical to the corresponding prefix of an
  // uninterrupted run, for every engine and thread count (complete levels
  // only). max_levels and periodic checkpoints remain level-boundary
  // conditions.
  //
  // Cooperative cancellation. Non-owning; may be tripped from a signal
  // handler. When it fires, explore() returns an *interrupted* graph
  // (ConfigGraph::interrupted()) rather than an error: everything explored
  // is valid, and pending_frontier() says where to pick up.
  const CancelToken* cancel = nullptr;
  // Steady-clock deadline; Deadline{} (the default) means none.
  Deadline deadline = {};
  // Deterministic interruption: stop (interrupted) once this many NEW
  // levels have completed this session; 0 = unlimited. This is the testable
  // stand-in for a wall-clock deadline — same code path, no timing races.
  std::uint32_t max_levels = 0;
  // When non-empty, a resumable checkpoint is written here (atomically) at
  // every interruption, and additionally every checkpoint_every_levels
  // completed levels when that is non-zero. A failed checkpoint write fails
  // the run (a long run silently losing its safety net is the worse bug).
  // The cadence counts levels from the session start.
  std::string checkpoint_path = {};
  std::uint32_t checkpoint_every_levels = 0;
  // Label echoed into checkpoints and error messages (task name); not
  // semantically validated.
  std::string checkpoint_label = {};
  // Resume from a previously-written checkpoint (non-owning). The options
  // above must shape the same graph (reduction, budget, flag function,
  // initial flag — enforced via the checkpoint fingerprint, returning
  // FAILED_PRECONDITION on mismatch); engine/threads may differ freely.
  const ExploreCheckpoint* resume = nullptr;
};

// One directed edge of the configuration graph.
struct Edge {
  std::uint32_t to = 0;   // target node id
  std::int32_t pid = -1;  // process that stepped
  sim::Action::Kind kind = sim::Action::Kind::kInvoke;
  // The stepping process's pid in the target's stored configuration: σ(pid)
  // for the permutation σ that canonicalized the successor under symmetry
  // reduction, else pid. Lets a walk follow one process across a quotient.
  std::uint16_t to_pid = 0;

  friend bool operator==(const Edge&, const Edge&) = default;
};
static_assert(sizeof(Edge) == 12, "the graph stores one Edge per transition");

// A node with its configuration decoded, as ConfigGraph::nodes() copies it
// out.
struct Node {
  sim::Config config;
  std::int64_t flag = 0;
  std::uint32_t depth = 0;  // BFS depth (shortest history length)
};

// The reachable graph, stored compactly: each node once, as its intern key
// (the packed path flag, then the packed configuration encoding; see
// sim::pack_word) in one arena, with edges in CSR form and one flat array
// per remaining per-node field. Configurations and parent steps are
// rebuilt on demand, straight from the key bytes, so a pass over every
// node decodes into one scratch sim::Config (config_into) and allocates
// nothing per node.
class ConfigGraph {
 public:
  std::uint32_t node_count() const {
    return static_cast<std::uint32_t>(depths_.size());
  }
  // Node id's intern key: the path flag, then the encoding of its
  // configuration (under symmetry reduction, of the orbit representative),
  // every word packed (sim::pack_word). Equal keys are equal nodes. Stable
  // for the graph's lifetime.
  std::span<const std::uint8_t> key(std::uint32_t id) const {
    return keys_[id];
  }
  // The path flag: the key's first packed word.
  std::int64_t flag(std::uint32_t id) const;
  // The rest of the key: node id's configuration encoding, packed. Equal
  // for two nodes iff their configurations are.
  std::span<const std::uint8_t> packed_config(std::uint32_t id) const;
  // BFS depth (shortest history length).
  std::uint32_t depth(std::uint32_t id) const { return depths_[id]; }
  // Outgoing edges in canonical order: pids ascending, then outcome order.
  std::span<const Edge> edges(std::uint32_t id) const {
    return {edges_.data() + edge_begin_[id],
            edges_.data() + edge_begin_[id + 1]};
  }
  // Decodes node id's configuration from its key.
  sim::Config config(std::uint32_t id) const;
  // config(id) into *out, reusing its storage.
  void config_into(std::uint32_t id, sim::Config* out) const;
  // Discovering edge: node id was first reached by edges(parent(id))
  // [parent_edge(id)]. Both are 0 for the root.
  std::uint32_t parent(std::uint32_t id) const { return parents_[id].id; }
  std::uint32_t parent_edge(std::uint32_t id) const {
    return parents_[id].edge;
  }
  // The step of node id's discovering edge, rebuilt by replaying it from
  // the parent's configuration (the representative's, under symmetry
  // reduction). Not meaningful for the root.
  sim::Step parent_step(std::uint32_t id) const;
  // The pid permutation (perm[old_pid] = new_pid) that canonicalized node
  // id's discovering successor into its stored representative; the
  // identity for nodes stored as reached. Empty unless symmetry reduction
  // was active. path_to() composes these to lift representative-space
  // steps to concrete ones.
  std::span<const std::uint8_t> discovery_perm(std::uint32_t id) const {
    if (perms_.empty()) return {};
    return {perms_.data() + std::size_t{id} * process_count_,
            process_count_};
  }
  // Every node with its configuration decoded: an O(N) copy that holds the
  // whole graph in decoded form. Kept only for perfbench's stage replay
  // (perfbench/layers.cc); everything else reads node_count(), key(),
  // flag(), depth() and config_into().
  std::vector<Node> nodes() const;

  std::uint32_t root() const { return 0; }
  std::uint64_t transition_count() const { return edges_.size(); }
  // True iff exploration stopped at the node budget (allow_truncation).
  bool truncated() const { return truncated_; }
  // True iff exploration stopped early at a level boundary (cancellation,
  // deadline, or ExploreOptions::max_levels). The graph is the exact
  // canonical prefix of the complete graph: every node of depth <
  // levels_completed() is fully expanded, and pending_frontier() lists the
  // next level's nodes (present, unexpanded) in canonical id order.
  bool interrupted() const { return interrupted_; }
  // Number of fully-expanded BFS levels (== max depth + 1 when complete).
  std::uint32_t levels_completed() const { return levels_completed_; }
  // Nodes awaiting expansion; empty unless interrupted().
  const std::vector<std::uint32_t>& pending_frontier() const {
    return pending_frontier_;
  }
  // The reduction mode this graph was explored under.
  Reduction reduction() const { return reduction_; }
  // kParallel iff at least one level generated its successors on the
  // worker pool, else kSerial (never kAuto). Lets reports attribute
  // nodes/sec to the code path that did the work.
  ExploreEngine engine_used() const { return engine_used_; }
  // Non-null iff symmetry reduction was active (non-trivial group).
  const std::shared_ptr<const sim::Canonicalizer>& canonicalizer() const {
    return canonicalizer_;
  }
  // Σ orbit_size(node) over all nodes. With symmetry reduction on a
  // complete graph this is exactly the unreduced node count (each orbit
  // contributes all its members); under POR it is a lower bound, since POR
  // removes whole configurations rather than orbit mates. Without symmetry
  // it equals node_count().
  std::uint64_t full_node_estimate() const;

  // Reconstructs one shortest step sequence from the root to node id
  // (for counterexample reporting) by replaying the discovering edges from
  // the initial configuration. On a symmetry-reduced graph the edges live
  // in representative space; the replay lifts them back to a concrete run
  // of the unreduced protocol. Either way the returned steps replay from
  // initial_config() through apply_step()/ScriptedAdversary verbatim, and
  // the replay is certified (LBSA_CHECK) to land on node id's stored
  // configuration (on a renaming of it, under symmetry reduction).
  std::vector<sim::Step> path_to(std::uint32_t id) const;

 private:
  friend class Explorer;
  struct Parent {
    std::uint32_t id = 0;
    std::uint32_t edge = 0;  // index into edges(id)
  };

  // Opens node id's edge list: every node before it is complete. Nodes
  // are expanded in ascending id order, so each list is one CSR range.
  void open_edges(std::uint32_t id) {
    while (edge_begin_.size() <= id) edge_begin_.push_back(edges_.size());
  }

  // Owns every key's bytes, each padded to whole words; keys_ points into
  // it.
  WordArena key_arena_;
  std::vector<std::span<const std::uint8_t>> keys_;
  std::vector<std::uint32_t> depths_;
  std::vector<Parent> parents_;
  // node_count() rows of process_count_ bytes under symmetry reduction,
  // else empty.
  std::vector<std::uint8_t> perms_;
  std::size_t process_count_ = 0;
  // CSR: node id's edges are edges_[edge_begin_[id], edge_begin_[id + 1]).
  std::vector<std::uint64_t> edge_begin_;
  std::vector<Edge> edges_;
  bool truncated_ = false;
  bool interrupted_ = false;
  std::uint32_t levels_completed_ = 0;
  std::vector<std::uint32_t> pending_frontier_;
  Reduction reduction_ = Reduction::kNone;
  ExploreEngine engine_used_ = ExploreEngine::kSerial;
  std::shared_ptr<const sim::Canonicalizer> canonicalizer_;
  // The explored protocol, for path replay and parent steps.
  std::shared_ptr<const sim::Protocol> protocol_;
};

class Explorer {
 public:
  // Folds a step into the path flag (must be monotone for the graph to be
  // meaningful: nodes reached with different flags are distinct nodes).
  // Must be a pure function of its arguments: pooled levels call it
  // concurrently from worker threads.
  using FlagFn =
      std::function<std::int64_t(std::int64_t flag, const sim::Step& step)>;

  explicit Explorer(std::shared_ptr<const sim::Protocol> protocol)
      : protocol_(std::move(protocol)) {}

  // BFS from the initial configuration. On success the graph is complete:
  // every reachable (config, flag) node and every transition is present.
  // Node ids, edge order, depths and parent pointers are canonical (BFS
  // discovery order: frontier ids, then pids ascending, then outcome
  // order) regardless of options.threads/engine, so graphs from any
  // configuration of the explorer compare bit-identical.
  StatusOr<ConfigGraph> explore(const ExploreOptions& options = {},
                                FlagFn flag_fn = nullptr,
                                std::int64_t initial_flag = 0) const;

  const sim::Protocol& protocol() const { return *protocol_; }

 private:
  std::shared_ptr<const sim::Protocol> protocol_;
};

}  // namespace lbsa::modelcheck

#endif  // LBSA_MODELCHECK_EXPLORER_H_
