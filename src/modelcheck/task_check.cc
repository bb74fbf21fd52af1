#include "modelcheck/task_check.h"

#include <algorithm>
#include <set>
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

// ---------------------------------------------------------------------------
// Solo-run termination: from a start state, process pid runs alone; over
// every nondeterministic object outcome it must reach kDecided (or kAborted
// when allow_abort) without revisiting a state. Memoized per pid across all
// start states. One DFS serves two successor sources:
//   * GraphSolo walks the explored graph: states are node ids and pid's
//     successors are the node's pid-labelled edges. Sound only on a graph
//     that holds every solo successor (see check_dac_task).
//   * SimSolo re-simulates: states are configurations, successors come from
//     enumerate_successors, and the memo is keyed on the encoding.
// ---------------------------------------------------------------------------

enum class Memo : std::uint8_t { kUnseen = 0, kInProgress, kGood };

class GraphSolo {
 public:
  using State = std::uint32_t;

  // Copies pid's status out of every node in one pass, so the walk reads a
  // flat byte array instead of each node's process vector.
  GraphSolo(const ConfigGraph& graph, int pid)
      : edges_(graph.edges()),
        pid_(pid),
        status_(graph.nodes().size()),
        memo_(graph.nodes().size(), Memo::kUnseen) {
    for (std::size_t id = 0; id < status_.size(); ++id) {
      status_[id] =
          graph.nodes()[id].config.procs[static_cast<size_t>(pid)].status;
    }
  }

  State start(std::uint32_t id) const { return id; }
  sim::ProcStatus status(State id) const { return status_[id]; }
  Memo& memo(State id) { return memo_[id]; }
  void forget(State id) { memo_[id] = Memo::kUnseen; }

  template <typename Visit>
  bool all_successors(State id, Visit&& visit) {
    for (const Edge& e : edges_[id]) {
      if (e.pid == pid_ && !visit(e.to)) return false;
    }
    return true;
  }

 private:
  const std::vector<std::vector<Edge>>& edges_;
  int pid_;
  std::vector<sim::ProcStatus> status_;
  std::vector<Memo> memo_;
};

class SimSolo {
 public:
  using State = sim::Config;

  SimSolo(const sim::Protocol& protocol, const ConfigGraph& graph, int pid)
      : protocol_(protocol), graph_(graph), pid_(pid) {}

  const State& start(std::uint32_t id) const {
    return graph_.nodes()[id].config;
  }
  sim::ProcStatus status(const State& config) const {
    return config.procs[static_cast<size_t>(pid_)].status;
  }
  // References into an unordered_map survive rehashing.
  Memo& memo(const State& config) { return memo_[config.encode()]; }
  void forget(const State& config) { memo_.erase(config.encode()); }

  template <typename Visit>
  bool all_successors(const State& config, Visit&& visit) {
    std::vector<sim::Successor> succs;
    sim::enumerate_successors(protocol_, config, pid_, &succs);
    for (const sim::Successor& succ : succs) {
      if (!visit(succ.config)) return false;
    }
    return true;
  }

 private:
  const sim::Protocol& protocol_;
  const ConfigGraph& graph_;
  int pid_;
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
  bool dfs(const State& state, std::string* detail) {
    switch (source_.status(state)) {
      case sim::ProcStatus::kDecided:
        return true;
      case sim::ProcStatus::kAborted:
        if (allow_abort_) return true;
        *detail = "process p" + std::to_string(pid_) +
                  " aborted in a solo run where only decide is allowed";
        return false;
      case sim::ProcStatus::kCrashed:
        *detail = "process p" + std::to_string(pid_) + " crashed mid-check";
        return false;
      case sim::ProcStatus::kRunning:
        break;
    }
    if (++nodes_visited_ > node_bound_) {
      *detail = "solo-run node budget exceeded for p" + std::to_string(pid_);
      return false;
    }

    Memo& memo = source_.memo(state);
    if (memo == Memo::kGood) return true;
    if (memo == Memo::kInProgress) {
      // Revisiting an in-progress state: pid can cycle solo forever.
      *detail = "process p" + std::to_string(pid_) +
                " can take infinitely many solo steps without terminating";
      return false;
    }
    memo = Memo::kInProgress;
    if (!source_.all_successors(
            state, [&](const State& next) { return dfs(next, detail); })) {
      // Forget the entry so other paths re-examine it.
      source_.forget(state);
      return false;
    }
    memo = Memo::kGood;
    return true;
  }

  Source source_;
  int pid_;
  bool allow_abort_;
  std::uint64_t node_bound_;
  std::uint64_t nodes_visited_ = 0;
  std::uint64_t visits_ = 0;
};

// ---------------------------------------------------------------------------
// Wait-freedom: process pid violates wait-freedom iff the configuration
// graph, restricted to nodes where pid is still running, contains a cycle
// with at least one pid-step on it — i.e. pid can take infinitely many steps
// without deciding. Detected via iterative Tarjan SCC.
// ---------------------------------------------------------------------------

class WaitFreedomChecker {
 public:
  WaitFreedomChecker(const ConfigGraph& graph, int pid)
      : graph_(graph), pid_(pid) {}

  // Returns a node on a violating cycle, or nodes().size() if none.
  std::uint32_t find_violation() {
    const size_t n = graph_.nodes().size();
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
      for (const Edge& e : graph_.edges()[u]) {
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
    return graph_.nodes()[v].config.procs[static_cast<size_t>(pid_)].running();
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
      const auto& edges = graph_.edges()[f.v];
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
  report.node_count = graph.nodes().size();
  report.transition_count = graph.transition_count();
  report.full_node_estimate = graph.full_node_estimate();
  report.partial = graph.truncated();
  report.interrupted = graph.interrupted();

  const std::set<Value> input_set(inputs.begin(), inputs.end());

  for (std::uint32_t id = 0; id < graph.nodes().size(); ++id) {
    const sim::Config& config = graph.nodes()[id].config;
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
    WaitFreedomChecker checker(graph, pid);
    const std::uint32_t bad = checker.find_violation();
    if (bad < graph.nodes().size()) {
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
  report.node_count = graph.nodes().size();
  report.transition_count = graph.transition_count();
  report.full_node_estimate = graph.full_node_estimate();
  report.partial = graph.truncated();
  report.interrupted = graph.interrupted();

  for (std::uint32_t id = 0; id < graph.nodes().size(); ++id) {
    const Node& node = graph.nodes()[id];
    const sim::Config& config = node.config;
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
        node.flag == 0) {
      add_violation(&report, options, "nontriviality",
                    "p aborted in a run where no other process took a step",
                    format_path(*protocol, graph, id));
    }
    if (report_full(report, options)) return report;
  }

  // Termination (a): from every reachable configuration, p running solo
  // decides or aborts. Termination (b): every q != p running solo decides.
  // Every engine emits each enabled pid's enumerate_successors outcomes, in
  // order, as that node's pid-labelled edges. So a complete graph without
  // POR and without a symmetry quotient already holds every solo successor,
  // and the solo DFS walks it. Elsewhere solo edges are missing (POR prunes
  // them, quotient edges drop the pid renaming, and a truncated or
  // interrupted frontier is unexpanded), and the solo runs are re-simulated.
  const bool walk = !graph.truncated() && !graph.interrupted() &&
                    graph.canonicalizer() == nullptr &&
                    graph.reduction() != Reduction::kPor &&
                    graph.reduction() != Reduction::kBoth;
  const auto node_count = static_cast<std::uint32_t>(graph.nodes().size());
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
        walk ? solo_failure(GraphSolo(graph, pid), &walked)
             : solo_failure(SimSolo(*protocol, graph, pid), &simulated);
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
