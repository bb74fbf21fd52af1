#include "modelcheck/task_check.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <set>
#include <span>
#include <thread>
#include <unordered_map>
#include <utility>

#include "base/check.h"
#include "base/hashing.h"
#include "obs/obs.h"
#include "sim/symmetry.h"

namespace lbsa::modelcheck {
namespace {

struct KeyHash {
  std::size_t operator()(const std::vector<std::uint8_t>& key) const {
    return static_cast<std::size_t>(hash_bytes(key));
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

// The distinct decided values in a configuration, written into *out.
void decided_values(const sim::Config& config, std::vector<Value>* out) {
  out->clear();
  for (const sim::ProcessState& ps : config.procs) {
    if (ps.decided()) out->push_back(ps.decision);
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

// The thread count of a check's passes: the exploration's when it generated
// some level on the worker pool, else 1. A graph that needed no pool is
// too small for more threads to pay (docs/checking.md, "Engine
// selection").
int check_threads(const ConfigGraph& graph, const ExploreOptions& explore) {
  return graph.engine_used() == ExploreEngine::kParallel
             ? resolve_threads(explore.threads)
             : 1;
}

// Runs task(0), ..., task(count - 1), each on one thread, over at most
// `threads` threads: the calling thread and helpers joined before this
// returns.
template <typename Task>
void run_tasks(int threads, std::size_t count, const Task& task) {
  std::atomic<std::size_t> next{0};
  const auto drain = [&] {
    for (std::size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) <
                        count;) {
      task(i);
    }
  };
  std::vector<std::jthread> helpers;  // joined first on return
  for (std::size_t t = 1;
       t < std::min(static_cast<std::size_t>(threads), count); ++t) {
    helpers.emplace_back(drain);
  }
  drain();
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
//     enumerate_successors, and the memo is keyed on the packed encoding.
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
  // Keyed on the packed encoding (sim::pack_words): a start node's is its
  // stored key without the flag, a simulated configuration's is packed
  // here. References into an unordered_map survive rehashing.
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

  const std::vector<std::uint8_t>& encoding(const State& state) {
    if (state.node != kNoNode) {
      const std::span<const std::uint8_t> packed =
          graph_.packed_config(state.node);
      key_.assign(packed.begin(), packed.end());
    } else {
      state.config->encode_into(&words_);
      key_.clear();
      sim::pack_words(words_, &key_);
    }
    return key_;
  }

  const sim::Protocol& protocol_;
  const ConfigGraph& graph_;
  const StatusTable& statuses_;
  int pid_;
  sim::Config start_;  // the start node being expanded
  std::vector<std::vector<sim::Successor>> succs_;  // per DFS depth
  std::vector<std::int64_t> words_;  // a simulated state's encoding
  std::vector<std::uint8_t> key_;
  std::unordered_map<std::vector<std::uint8_t>, Memo, KeyHash> memo_;
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

// A report with no room could only ever say "all properties hold".
Status check_options(const TaskCheckOptions& options, const char* checker) {
  if (options.max_violations >= 1) return Status::ok();
  return invalid_argument(std::string(checker) +
                          ": TaskCheckOptions::max_violations must be at "
                          "least 1, got " +
                          std::to_string(options.max_violations));
}

// A violation the node pass found, before its trace is formatted.
struct Finding {
  std::uint32_t id = 0;
  std::string property;
  std::string detail;
};

// The safety pass: decodes every node once, records its statuses, and has
// judge(id, config, &decided, add) call add(property, detail) for each
// property the node violates; `decided` is scratch the judge reuses. On
// `threads` threads, [0, N) splits into contiguous id ranges, each judging
// until it holds max_violations findings. Their findings join the report
// range by range, in id order, so it holds the violations a one-thread
// pass finds, and only kept ones get a trace. The pass also sets
// report->full_node_estimate: under symmetry reduction each range sums its
// nodes' orbit sizes, decoding the rest of its range without judging once
// it stops early. Returns true iff the report is full, as it is whenever
// some range stopped early; the statuses are then incomplete.
template <typename Judge>
bool node_pass(const sim::Protocol& protocol, const ConfigGraph& graph,
               const TaskCheckOptions& options, int threads,
               StatusTable* statuses, TaskReport* report, const Judge& judge) {
  const std::uint64_t node_count = graph.node_count();
  const std::size_t limit = static_cast<std::size_t>(options.max_violations);
  const sim::Canonicalizer* canon = graph.canonicalizer().get();
  std::vector<std::vector<Finding>> ranges(static_cast<std::size_t>(threads));
  std::vector<std::uint64_t> orbit_sums(ranges.size(), 0);
  run_tasks(threads, ranges.size(), [&](std::size_t r) {
    const auto begin =
        static_cast<std::uint32_t>(node_count * r / ranges.size());
    const auto end =
        static_cast<std::uint32_t>(node_count * (r + 1) / ranges.size());
    std::vector<Finding>& found = ranges[r];
    sim::Config config;
    sim::CanonScratch scratch;
    std::vector<Value> decided;
    std::uint64_t orbit_sum = 0;
    for (std::uint32_t id = begin; id < end; ++id) {
      const bool judging = found.size() < limit;
      if (!judging && canon == nullptr) break;
      graph.config_into(id, &config);
      if (canon != nullptr) orbit_sum += canon->orbit_size(config, &scratch);
      if (!judging) continue;
      statuses->record(id, config);
      judge(id, config, &decided,
            [&found, id](std::string property, std::string detail) {
              found.push_back({id, std::move(property), std::move(detail)});
            });
    }
    orbit_sums[r] = orbit_sum;
  });
  report->full_node_estimate =
      canon == nullptr
          ? node_count
          : std::accumulate(orbit_sums.begin(), orbit_sums.end(),
                            std::uint64_t{0});
  for (std::vector<Finding>& found : ranges) {
    for (Finding& f : found) {
      if (report_full(*report, options)) return true;
      add_violation(report, options, std::move(f.property),
                    std::move(f.detail), format_path(protocol, graph, f.id));
    }
  }
  return report_full(*report, options);
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
    const std::vector<Value>& inputs, const TaskCheckOptions& options,
    ConfigGraph* explored) {
  LBSA_CHECK(k >= 1);
  LBSA_CHECK(static_cast<int>(inputs.size()) == protocol->process_count());
  const Status valid = check_options(options, "check_k_agreement_task");
  if (!valid.is_ok()) return valid;

  Explorer explorer(protocol);
  StatusOr<ConfigGraph> graph_or = explorer.explore(options.explore);
  if (!graph_or.is_ok()) return graph_or.status();
  if (explored != nullptr) *explored = std::move(graph_or).value();
  const ConfigGraph& graph =
      explored != nullptr ? *explored : graph_or.value();

  TaskReport report;
  report.node_count = graph.node_count();
  report.transition_count = graph.transition_count();
  report.partial = graph.truncated();
  report.interrupted = graph.interrupted();

  const std::set<Value> input_set(inputs.begin(), inputs.end());

  StatusTable statuses(graph.node_count(), protocol->process_count());
  const auto judge = [&](std::uint32_t /*id*/, const sim::Config& config,
                         std::vector<Value>* decided, const auto& add) {
    decided_values(config, decided);
    if (static_cast<int>(decided->size()) > k) {
      add("agreement", std::to_string(decided->size()) +
                           " distinct decisions with k=" + std::to_string(k));
    }
    for (Value v : *decided) {
      if (!input_set.contains(v)) {
        add("validity",
            "decided value " + value_to_string(v) + " was never proposed");
        break;
      }
    }
    for (size_t pid = 0; pid < config.procs.size(); ++pid) {
      if (config.procs[pid].aborted()) {
        add("no-abort", "process p" + std::to_string(pid) +
                            " aborted in a k-set-agreement task");
      }
    }
  };
  if (node_pass(*protocol, graph, options,
                check_threads(graph, options.explore), &statuses, &report,
                judge)) {
    return report;
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
    const std::vector<Value>& inputs, const TaskCheckOptions& options,
    ConfigGraph* explored) {
  const int n = protocol->process_count();
  LBSA_CHECK(static_cast<int>(inputs.size()) == n);
  LBSA_CHECK(distinguished_pid >= 0 && distinguished_pid < n);
  const Status valid = check_options(options, "check_dac_task");
  if (!valid.is_ok()) return valid;

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
  if (explored != nullptr) *explored = std::move(graph_or).value();
  const ConfigGraph& graph =
      explored != nullptr ? *explored : graph_or.value();
  const int threads = check_threads(graph, explore);

  TaskReport report;
  report.node_count = graph.node_count();
  report.transition_count = graph.transition_count();
  report.partial = graph.truncated();
  report.interrupted = graph.interrupted();

  StatusTable statuses(graph.node_count(), n);
  const auto judge = [&](std::uint32_t id, const sim::Config& config,
                         std::vector<Value>* decided, const auto& add) {
    decided_values(config, decided);

    // Agreement: at most one distinct decision.
    if (decided->size() > 1) add("agreement", "two distinct decisions");

    // Validity: every decided value is the input of a process that has not
    // aborted (abort is irrevocable, and decisions persist, so checking
    // every reachable configuration is equivalent to the per-execution
    // statement).
    for (Value v : *decided) {
      bool witnessed = false;
      for (size_t pid = 0; pid < config.procs.size(); ++pid) {
        if (inputs[pid] == v && !config.procs[pid].aborted()) {
          witnessed = true;
          break;
        }
      }
      if (!witnessed) {
        add("validity", "decided value " + value_to_string(v) +
                            " has no non-aborting proposer");
      }
    }

    // Only the distinguished process may abort.
    for (size_t pid = 0; pid < config.procs.size(); ++pid) {
      if (config.procs[pid].aborted() &&
          static_cast<int>(pid) != distinguished_pid) {
        add("only-p-aborts", "process p" + std::to_string(pid) +
                                 " aborted but is not distinguished");
      }
    }

    // Nontriviality: p aborted although no other process ever took a step.
    if (config.procs[static_cast<size_t>(distinguished_pid)].aborted() &&
        graph.flag(id) == 0) {
      add("nontriviality",
          "p aborted in a run where no other process took a step");
    }
  };
  if (node_pass(*protocol, graph, options, threads, &statuses, &report,
                judge)) {
    return report;
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
  // Each pid's first failing start node, its detail and its DFS visits.
  struct Solo {
    std::uint32_t bad = 0;
    std::string detail;
    std::uint64_t visits = 0;
  };
  std::vector<Solo> solo(static_cast<std::size_t>(n));
  const auto run_solo = [&](int pid) {
    Solo& out = solo[static_cast<std::size_t>(pid)];
    const auto run = [&](auto source) {
      SoloChecker checker(std::move(source), pid,
                          /*allow_abort=*/pid == distinguished_pid,
                          options.solo_node_bound);
      out.bad = checker.first_failure(node_count, &out.detail);
      out.visits = checker.visits();
    };
    if (walk) {
      run(GraphSolo(graph, statuses, walk_memo.data(), pid));
    } else {
      run(SimSolo(*protocol, graph, statuses, pid));
    }
  };
  // Adds pid's witness, if any (one per process suffices), and its visits;
  // true once the report is full.
  std::uint64_t visits = 0;
  const auto add_solo = [&](int pid) {
    Solo& s = solo[static_cast<std::size_t>(pid)];
    visits += s.visits;
    if (s.bad < node_count) {
      add_violation(&report, options,
                    pid == distinguished_pid ? "termination(a)"
                                             : "termination(b)",
                    std::move(s.detail), format_path(*protocol, graph, s.bad));
    }
    return report_full(report, options);
  };
  // A walk renames its process only within the start pid's orbit, so
  // orbits touch disjoint slices of the pid-major memo and run in parallel.
  // The pids of one orbit run in pid order on one thread, each reusing the
  // states the ones before it proved good. A simulation's memo is its own.
  // The report and the counters take the pids in pid order up to the one
  // that fills the report, whatever the thread count.
  const std::vector<std::vector<int>> orbits =
      sim::orbit_buckets(graph.canonicalizer() != nullptr
                             ? graph.canonicalizer()->spec()
                             : sim::SymmetrySpec::none(n));
  run_tasks(threads, orbits.size(), [&](std::size_t o) {
    for (const int pid : orbits[o]) run_solo(pid);
  });
  for (int pid = 0; pid < n; ++pid) {
    if (add_solo(pid)) break;
  }
  LBSA_OBS_COUNTER_ADD_V("task_check.solo.walked", walk ? visits : 0);
  LBSA_OBS_COUNTER_ADD_V("task_check.solo.simulated", walk ? 0 : visits);
  return report;
}

}  // namespace lbsa::modelcheck
