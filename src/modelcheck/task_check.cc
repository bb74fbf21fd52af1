#include "modelcheck/task_check.h"

#include <algorithm>
#include <set>
#include <span>
#include <unordered_map>
#include <utility>

#include "base/check.h"
#include "base/hashing.h"
#include "obs/obs.h"

namespace lbsa::modelcheck {
namespace {

struct KeyHash {
  std::size_t operator()(const std::vector<std::int64_t>& key) const {
    return static_cast<std::size_t>(hash_words(key));
  }
};

std::vector<std::string> format_path(const sim::Protocol& protocol,
                                     const ConfigGraph& graph,
                                     std::uint32_t id) {
  std::vector<std::string> out;
  for (const sim::Step& step : graph.path_to(id)) {
    out.push_back(step.to_string(protocol));
  }
  return out;
}

// Collects the distinct decided values in a configuration.
std::vector<Value> decided_values(const sim::Config& config) {
  std::vector<Value> out;
  for (const sim::ProcessState& ps : config.procs) {
    if (ps.decided()) out.push_back(ps.decision);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// Every node's process statuses, node-major: status(id, pid) is
// statuses[id * n + pid]. Filled by the property pass, which decodes each
// node once, so the per-process walks below read a flat byte array and
// decode nothing.
class StatusTable {
 public:
  StatusTable(std::uint32_t node_count, int process_count)
      : n_(static_cast<std::size_t>(process_count)),
        statuses_(node_count * n_) {}

  void record(std::uint32_t id, const sim::Config& config) {
    for (std::size_t pid = 0; pid < n_; ++pid) {
      statuses_[id * n_ + pid] = config.procs[pid].status;
    }
  }
  sim::ProcStatus status(std::uint32_t id, int pid) const {
    return statuses_[id * n_ + static_cast<std::size_t>(pid)];
  }

 private:
  std::size_t n_;
  std::vector<sim::ProcStatus> statuses_;
};

// ---------------------------------------------------------------------------
// Solo-run termination: from a start state, process pid runs alone; over
// every nondeterministic object outcome it must reach kDecided (or kAborted
// when allow_abort) without revisiting a state. Memoized across all start
// states. One iterative DFS serves two successor sources:
//   * GraphSolo walks the explored graph: a state is a (node, pid) pair and
//     its successors are the node's edges by that pid, each leading to
//     (e.to, e.to_pid). On a symmetry quotient the stepping process may
//     carry another name in the target's representative, and to_pid is that
//     name. Sound only on a graph that holds every solo successor (see
//     check_dac_task).
//   * SimSolo re-simulates: states are configurations, successors come from
//     enumerate_successors, and the memo is keyed on the encoding.
// A source's successors of the state at DFS depth d are read through a
// cursor: expand(d, state) prepares them and returns the cursor, and
// next(d, &cursor, &out) yields them in order.
// ---------------------------------------------------------------------------

enum class Memo : std::uint8_t { kUnseen = 0, kInProgress, kGood };

class GraphSolo {
 public:
  struct State {
    std::uint32_t node = 0;
    int pid = 0;
  };

  // `memo` holds one byte per (pid, node), pid-major, and is shared by
  // every start pid. A walk from start pid q meets only pids of q's orbit,
  // and a failed DFS forgets its path, so the sharing reuses nothing but
  // states already proven good (and, without symmetry, nothing at all).
  GraphSolo(const ConfigGraph& graph, const StatusTable& statuses,
            Memo* memo, int pid)
      : graph_(graph),
        statuses_(statuses),
        memo_(memo),
        node_count_(graph.node_count()),
        pid_(pid) {}

  State start(std::uint32_t id) const { return {id, pid_}; }
  sim::ProcStatus status(const State& state) const {
    return statuses_.status(state.node, state.pid);
  }
  Memo& memo(const State& state) {
    return memo_[static_cast<std::size_t>(state.pid) * node_count_ +
                 state.node];
  }

  // The node's edges by the state's pid: one run, since edges ascend by
  // pid.
  struct Cursor {
    const Edge* next;
    const Edge* end;
  };
  Cursor expand(std::size_t /*depth*/, const State& state) const {
    const std::span<const Edge> edges = graph_.edges(state.node);
    const Edge* first = edges.data();
    const Edge* last = first + edges.size();
    while (first != last && first->pid < state.pid) ++first;
    const Edge* end = first;
    while (end != last && end->pid == state.pid) ++end;
    return {first, end};
  }
  bool next(std::size_t /*depth*/, Cursor* cursor, State* out) const {
    if (cursor->next == cursor->end) return false;
    const Edge& e = *cursor->next++;
    *out = {e.to, e.to_pid};
    return true;
  }

 private:
  const ConfigGraph& graph_;
  const StatusTable& statuses_;
  Memo* memo_;
  std::size_t node_count_;
  int pid_;
};

class SimSolo {
 public:
  // A start node, decoded only when its successors are needed, or a
  // simulated configuration.
  struct State {
    std::uint32_t node = kNoNode;
    const sim::Config* config = nullptr;
  };

  SimSolo(const sim::Protocol& protocol, const ConfigGraph& graph,
          const StatusTable& statuses, int pid)
      : protocol_(protocol), graph_(graph), statuses_(statuses), pid_(pid) {}

  State start(std::uint32_t id) const { return {id, nullptr}; }
  sim::ProcStatus status(const State& state) const {
    if (state.node != kNoNode) return statuses_.status(state.node, pid_);
    return state.config->procs[static_cast<size_t>(pid_)].status;
  }
  // Keyed on the encoding. A start node's is its stored key without the
  // flag. References into an unordered_map survive rehashing.
  Memo& memo(const State& state) { return memo_[encoding(state)]; }

  // Simulates the state's successors into depth's buffer; the cursor
  // indexes it. A buffer keeps its capacity across states, and its
  // configurations stay put while deeper buffers are added, so the states
  // a DFS stack points at survive.
  using Cursor = std::size_t;
  Cursor expand(std::size_t depth, const State& state) {
    if (succs_.size() <= depth) succs_.resize(depth + 1);
    const sim::Config* config = state.config;
    if (state.node != kNoNode) {
      graph_.config_into(state.node, &start_);
      config = &start_;
    }
    succs_[depth].clear();
    sim::enumerate_successors(protocol_, *config, pid_, &succs_[depth]);
    return 0;
  }
  bool next(std::size_t depth, Cursor* cursor, State* out) const {
    const std::vector<sim::Successor>& succs = succs_[depth];
    if (*cursor == succs.size()) return false;
    *out = State{kNoNode, &succs[(*cursor)++].config};
    return true;
  }

 private:
  static constexpr std::uint32_t kNoNode = ~0u;

  const std::vector<std::int64_t>& encoding(const State& state) {
    if (state.node != kNoNode) {
      const std::span<const std::int64_t> key = graph_.key(state.node);
      key_.assign(key.begin(), key.end() - 1);
    } else {
      state.config->encode_into(&key_);
    }
    return key_;
  }

  const sim::Protocol& protocol_;
  const ConfigGraph& graph_;
  const StatusTable& statuses_;
  int pid_;
  sim::Config start_;  // the start node being expanded
  std::vector<std::vector<sim::Successor>> succs_;  // per DFS depth
  std::vector<std::int64_t> key_;
  std::unordered_map<std::vector<std::int64_t>, Memo, KeyHash> memo_;
};

template <typename Source>
class SoloChecker {
 public:
  using State = typename Source::State;

  SoloChecker(Source source, int pid, bool allow_abort,
              std::uint64_t node_bound)
      : source_(std::move(source)),
        pid_(pid),
        allow_abort_(allow_abort),
        node_bound_(node_bound) {}

  // Checks every solo continuation of pid from each of the first
  // node_count nodes, in id order. Returns the first node from which some
  // continuation fails to terminate acceptably (filling *detail), or
  // node_count if none does.
  std::uint32_t first_failure(std::uint32_t node_count, std::string* detail) {
    for (std::uint32_t id = 0; id < node_count; ++id) {
      nodes_visited_ = 0;
      const bool ok = dfs(source_.start(id), detail);
      visits_ += nodes_visited_;
      if (!ok) return id;
    }
    return node_count;
  }

  // DFS visits over all start nodes, counted as solo_node_bound counts them.
  std::uint64_t visits() const { return visits_; }

 private:
  enum class Visit { kGood, kBad, kExpand };

  // A state on the DFS stack: its memo entry and the cursor over its
  // successors.
  struct Frame {
    Memo* memo;
    typename Source::Cursor cursor;
  };

  // Depth-first over every solo continuation from `start`, in successor
  // order. Iterative: a solo run may be solo_node_bound steps long.
  bool dfs(const State& start, std::string* detail) {
    const Visit first = visit(start, detail);
    if (first != Visit::kExpand) return first == Visit::kGood;
    while (!stack_.empty()) {
      Frame& top = stack_.back();
      State next;
      if (!source_.next(stack_.size() - 1, &top.cursor, &next)) {
        *top.memo = Memo::kGood;
        stack_.pop_back();
      } else if (visit(next, detail) == Visit::kBad) {
        // Forget the failing path so other paths re-examine it.
        for (const Frame& frame : stack_) *frame.memo = Memo::kUnseen;
        stack_.clear();
        return false;
      }
    }
    return true;
  }

  // Judges `state` on arrival: kGood or kBad (filling *detail) if that
  // settles it, else kExpand after pushing it onto the stack.
  Visit visit(const State& state, std::string* detail) {
    switch (source_.status(state)) {
      case sim::ProcStatus::kDecided:
        return Visit::kGood;
      case sim::ProcStatus::kAborted:
        if (allow_abort_) return Visit::kGood;
        *detail = "process p" + std::to_string(pid_) +
                  " aborted in a solo run where only decide is allowed";
        return Visit::kBad;
      case sim::ProcStatus::kCrashed:
        *detail = "process p" + std::to_string(pid_) + " crashed mid-check";
        return Visit::kBad;
      case sim::ProcStatus::kRunning:
        break;
    }
    if (++nodes_visited_ > node_bound_) {
      *detail = "solo-run node budget exceeded for p" + std::to_string(pid_);
      return Visit::kBad;
    }

    Memo& memo = source_.memo(state);
    if (memo == Memo::kGood) return Visit::kGood;
    if (memo == Memo::kInProgress) {
      // Revisiting an in-progress state: pid can cycle solo forever.
      *detail = "process p" + std::to_string(pid_) +
                " can take infinitely many solo steps without terminating";
      return Visit::kBad;
    }
    memo = Memo::kInProgress;
    stack_.push_back(Frame{&memo, source_.expand(stack_.size(), state)});
    return Visit::kExpand;
  }

  Source source_;
  int pid_;
  bool allow_abort_;
  std::uint64_t node_bound_;
  std::uint64_t nodes_visited_ = 0;
  std::uint64_t visits_ = 0;
  std::vector<Frame> stack_;
};

// ---------------------------------------------------------------------------
// Wait-freedom: process pid violates wait-freedom iff the configuration
// graph, restricted to nodes where pid is still running, contains a cycle
// with at least one pid-step on it — i.e. pid can take infinitely many steps
// without deciding. Detected via iterative Tarjan SCC.
// ---------------------------------------------------------------------------

class WaitFreedomChecker {
 public:
  WaitFreedomChecker(const ConfigGraph& graph, const StatusTable& statuses,
                     int pid)
      : graph_(graph), statuses_(statuses), pid_(pid) {}

  // Returns a node on a violating cycle, or node_count() if none.
  std::uint32_t find_violation() {
    const size_t n = graph_.node_count();
    index_.assign(n, kUnvisited);
    lowlink_.assign(n, 0);
    on_stack_.assign(n, 0);
    scc_id_.assign(n, kUnvisited);
    for (std::uint32_t v = 0; v < n; ++v) {
      if (in_subgraph(v) && index_[v] == kUnvisited) tarjan(v);
    }
    // A pid-edge inside one SCC witnesses the cycle.
    for (std::uint32_t u = 0; u < n; ++u) {
      if (!in_subgraph(u)) continue;
      for (const Edge& e : graph_.edges(u)) {
        if (e.pid != pid_ || !in_subgraph(e.to)) continue;
        // A self-loop is a cycle; otherwise the SCC needs a second node.
        if (scc_id_[u] == scc_id_[e.to] &&
            (u == e.to || scc_size_[scc_id_[u]] > 1)) {
          return u;
        }
      }
    }
    return static_cast<std::uint32_t>(n);
  }

 private:
  static constexpr std::uint32_t kUnvisited = ~0u;

  bool in_subgraph(std::uint32_t v) const {
    return statuses_.status(v, pid_) == sim::ProcStatus::kRunning;
  }

  void tarjan(std::uint32_t root) {
    struct Frame {
      std::uint32_t v;
      size_t edge_pos;
    };
    std::vector<Frame> frames{{root, 0}};
    begin_node(root);
    while (!frames.empty()) {
      Frame& f = frames.back();
      const std::span<const Edge> edges = graph_.edges(f.v);
      bool descended = false;
      while (f.edge_pos < edges.size()) {
        const Edge& e = edges[f.edge_pos++];
        if (!in_subgraph(e.to)) continue;
        if (index_[e.to] == kUnvisited) {
          begin_node(e.to);
          frames.push_back({e.to, 0});
          descended = true;
          break;
        }
        if (on_stack_[e.to]) {
          lowlink_[f.v] = std::min(lowlink_[f.v], index_[e.to]);
        }
      }
      if (descended) continue;
      // f.v is finished.
      const std::uint32_t v = f.v;
      frames.pop_back();
      if (!frames.empty()) {
        lowlink_[frames.back().v] =
            std::min(lowlink_[frames.back().v], lowlink_[v]);
      }
      if (lowlink_[v] == index_[v]) {
        const std::uint32_t id = static_cast<std::uint32_t>(scc_size_.size());
        scc_size_.push_back(0);
        std::uint32_t w;
        do {
          w = stack_.back();
          stack_.pop_back();
          on_stack_[w] = 0;
          scc_id_[w] = id;
          ++scc_size_[id];
        } while (w != v);
      }
    }
  }

  void begin_node(std::uint32_t v) {
    index_[v] = lowlink_[v] = next_index_++;
    stack_.push_back(v);
    on_stack_[v] = 1;
  }

  const ConfigGraph& graph_;
  const StatusTable& statuses_;
  int pid_;
  std::uint32_t next_index_ = 0;
  std::vector<std::uint32_t> index_, lowlink_, scc_id_;
  std::vector<std::uint32_t> scc_size_;
  std::vector<char> on_stack_;
  std::vector<std::uint32_t> stack_;
};

void add_violation(TaskReport* report, const TaskCheckOptions& options,
                   std::string property, std::string detail,
                   std::vector<std::string> trace) {
  if (static_cast<int>(report->violations.size()) >= options.max_violations) {
    return;
  }
  report->violations.push_back(PropertyViolation{
      std::move(property), std::move(detail), std::move(trace)});
}

bool report_full(const TaskReport& report, const TaskCheckOptions& options) {
  return static_cast<int>(report.violations.size()) >= options.max_violations;
}

}  // namespace

bool TaskReport::violates(const std::string& property) const {
  return std::any_of(violations.begin(), violations.end(),
                     [&](const PropertyViolation& v) {
                       return v.property == property;
                     });
}

std::string TaskReport::to_string() const {
  std::string out = "nodes=" + std::to_string(node_count) +
                    " transitions=" + std::to_string(transition_count);
  if (partial) out += " (PARTIAL exploration)";
  if (interrupted) out += " (INTERRUPTED exploration)";
  if (ok()) return out + " — all properties hold";
  for (const PropertyViolation& v : violations) {
    out += "\nVIOLATION [" + v.property + "]: " + v.detail;
    for (const std::string& s : v.trace) out += "\n    " + s;
  }
  return out;
}

StatusOr<TaskReport> check_k_agreement_task(
    std::shared_ptr<const sim::Protocol> protocol, int k,
    const std::vector<Value>& inputs, const TaskCheckOptions& options) {
  LBSA_CHECK(k >= 1);
  LBSA_CHECK(static_cast<int>(inputs.size()) == protocol->process_count());

  Explorer explorer(protocol);
  StatusOr<ConfigGraph> graph_or = explorer.explore(options.explore);
  if (!graph_or.is_ok()) return graph_or.status();
  const ConfigGraph& graph = graph_or.value();

  TaskReport report;
  report.node_count = graph.node_count();
  report.transition_count = graph.transition_count();
  report.full_node_estimate = graph.full_node_estimate();
  report.partial = graph.truncated();
  report.interrupted = graph.interrupted();

  const std::set<Value> input_set(inputs.begin(), inputs.end());

  StatusTable statuses(graph.node_count(), protocol->process_count());
  sim::Config config;
  for (std::uint32_t id = 0; id < graph.node_count(); ++id) {
    graph.config_into(id, &config);
    statuses.record(id, config);
    const std::vector<Value> decided = decided_values(config);
    if (static_cast<int>(decided.size()) > k) {
      add_violation(&report, options, "agreement",
                    std::to_string(decided.size()) +
                        " distinct decisions with k=" + std::to_string(k),
                    format_path(*protocol, graph, id));
    }
    for (Value v : decided) {
      if (!input_set.contains(v)) {
        add_violation(&report, options, "validity",
                      "decided value " + value_to_string(v) +
                          " was never proposed",
                      format_path(*protocol, graph, id));
        break;
      }
    }
    for (size_t pid = 0; pid < config.procs.size(); ++pid) {
      if (config.procs[pid].aborted()) {
        add_violation(&report, options, "no-abort",
                      "process p" + std::to_string(pid) +
                          " aborted in a k-set-agreement task",
                      format_path(*protocol, graph, id));
      }
    }
    if (report_full(report, options)) return report;
  }

  for (int pid = 0; pid < protocol->process_count(); ++pid) {
    WaitFreedomChecker checker(graph, statuses, pid);
    const std::uint32_t bad = checker.find_violation();
    if (bad < graph.node_count()) {
      add_violation(
          &report, options, "termination",
          "process p" + std::to_string(pid) +
              " can take infinitely many steps without deciding",
          format_path(*protocol, graph, bad));
      if (report_full(report, options)) return report;
    }
  }
  return report;
}

StatusOr<TaskReport> check_dac_task(
    std::shared_ptr<const sim::Protocol> protocol, int distinguished_pid,
    const std::vector<Value>& inputs, const TaskCheckOptions& options) {
  const int n = protocol->process_count();
  LBSA_CHECK(static_cast<int>(inputs.size()) == n);
  LBSA_CHECK(distinguished_pid >= 0 && distinguished_pid < n);

  // Path flag: has any process other than p taken a step yet?
  Explorer explorer(protocol);
  auto flag_fn = [distinguished_pid](std::int64_t flag,
                                     const sim::Step& step) -> std::int64_t {
    return (step.pid != distinguished_pid) ? 1 : flag;
  };
  ExploreOptions explore = options.explore;
  if (explore.reduction == Reduction::kSymmetry ||
      explore.reduction == Reduction::kBoth) {
    const sim::SymmetrySpec spec = protocol->symmetry();
    if (!spec.trivial()) {
      // The flag depends only on "pid == p", so it is group-invariant
      // exactly when every group element fixes p. A spec that renames p
      // would silently conflate p-solo histories with others — reject it.
      if (!spec.is_singleton(distinguished_pid)) {
        return invalid_argument(
            "check_dac_task: symmetry reduction requires the declared "
            "symmetry group to fix the distinguished process p" +
            std::to_string(distinguished_pid) +
            " (its orbit must be a singleton)");
      }
      explore.flag_fn_symmetric = true;
    }
  }
  StatusOr<ConfigGraph> graph_or =
      explorer.explore(explore, flag_fn, /*initial_flag=*/0);
  if (!graph_or.is_ok()) return graph_or.status();
  const ConfigGraph& graph = graph_or.value();

  TaskReport report;
  report.node_count = graph.node_count();
  report.transition_count = graph.transition_count();
  report.full_node_estimate = graph.full_node_estimate();
  report.partial = graph.truncated();
  report.interrupted = graph.interrupted();

  StatusTable statuses(graph.node_count(), n);
  sim::Config config;
  for (std::uint32_t id = 0; id < graph.node_count(); ++id) {
    graph.config_into(id, &config);
    statuses.record(id, config);
    const std::vector<Value> decided = decided_values(config);

    // Agreement: at most one distinct decision.
    if (decided.size() > 1) {
      add_violation(&report, options, "agreement",
                    "two distinct decisions",
                    format_path(*protocol, graph, id));
    }

    // Validity: every decided value is the input of a process that has not
    // aborted (abort is irrevocable, and decisions persist, so checking
    // every reachable configuration is equivalent to the per-execution
    // statement).
    for (Value v : decided) {
      bool witnessed = false;
      for (size_t pid = 0; pid < config.procs.size(); ++pid) {
        if (inputs[pid] == v && !config.procs[pid].aborted()) {
          witnessed = true;
          break;
        }
      }
      if (!witnessed) {
        add_violation(&report, options, "validity",
                      "decided value " + value_to_string(v) +
                          " has no non-aborting proposer",
                      format_path(*protocol, graph, id));
      }
    }

    // Only the distinguished process may abort.
    for (size_t pid = 0; pid < config.procs.size(); ++pid) {
      if (config.procs[pid].aborted() &&
          static_cast<int>(pid) != distinguished_pid) {
        add_violation(&report, options, "only-p-aborts",
                      "process p" + std::to_string(pid) +
                          " aborted but is not distinguished",
                      format_path(*protocol, graph, id));
      }
    }

    // Nontriviality: p aborted although no other process ever took a step.
    if (config.procs[static_cast<size_t>(distinguished_pid)].aborted() &&
        graph.flag(id) == 0) {
      add_violation(&report, options, "nontriviality",
                    "p aborted in a run where no other process took a step",
                    format_path(*protocol, graph, id));
    }
    if (report_full(report, options)) return report;
  }

  // Termination (a): from every reachable configuration, p running solo
  // decides or aborts. Termination (b): every q != p running solo decides.
  // Every engine emits each enabled pid's enumerate_successors outcomes, in
  // order, as that node's pid-labelled edges, and each edge records the
  // stepping process's name in its target (to_pid). So a complete graph
  // without POR holds every solo successor, on a symmetry quotient up to
  // that renaming, and the solo DFS walks it. The walk may rename the solo
  // process only within its orbit, and p's orbit is the singleton {p}
  // (checked above), so a walk never changes which clause applies.
  // Elsewhere solo edges are missing (POR prunes them, and a truncated or
  // interrupted frontier is unexpanded), and the solo runs are re-simulated.
  const bool walk = !graph.truncated() && !graph.interrupted() &&
                    graph.reduction() != Reduction::kPor &&
                    graph.reduction() != Reduction::kBoth;
  const std::uint32_t node_count = graph.node_count();
  std::vector<Memo> walk_memo(
      walk ? std::size_t{node_count} * static_cast<std::size_t>(n) : 0,
      Memo::kUnseen);
  std::uint64_t walked = 0;
  std::uint64_t simulated = 0;
  for (int pid = 0; pid < n; ++pid) {
    const bool is_p = (pid == distinguished_pid);
    std::string detail;
    auto solo_failure = [&](auto source, std::uint64_t* visits) {
      SoloChecker solo(std::move(source), pid, /*allow_abort=*/is_p,
                       options.solo_node_bound);
      const std::uint32_t bad = solo.first_failure(node_count, &detail);
      *visits += solo.visits();
      return bad;
    };
    const std::uint32_t bad =
        walk ? solo_failure(GraphSolo(graph, statuses, walk_memo.data(), pid),
                            &walked)
             : solo_failure(SimSolo(*protocol, graph, statuses, pid),
                            &simulated);
    if (bad < node_count) {  // one witness per process suffices
      add_violation(&report, options,
                    is_p ? "termination(a)" : "termination(b)", detail,
                    format_path(*protocol, graph, bad));
    }
    if (report_full(report, options)) break;
  }
  LBSA_OBS_COUNTER_ADD_V("task_check.solo.walked", walked);
  LBSA_OBS_COUNTER_ADD_V("task_check.solo.simulated", simulated);
  return report;
}

}  // namespace lbsa::modelcheck
