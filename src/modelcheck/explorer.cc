#include "modelcheck/explorer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <iterator>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>

#include "base/arena.h"
#include "base/check.h"
#include "base/hashing.h"
#include "modelcheck/checkpoint.h"
#include "obs/obs.h"

namespace lbsa::modelcheck {
namespace {

// Partial-order reduction's ample-set selector: the smallest enabled
// process whose next action is a deterministic, purely-local step (decide /
// abort — touches no shared object) and, when a path flag is folded along
// edges, leaves the flag unchanged (the visibility proviso: a flag-changing
// step may not be prioritized, or flag-distinguished histories would be
// lost). Returns -1 when no such process exists and the node must be fully
// expanded. Pure function of (config, flag), so every thread agrees and
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
  for (std::uint32_t id = 0; id < graph.node_count(); ++id) {
    const std::uint32_t depth = graph.depth(id);
    if (depth >= level_sizes.size()) level_sizes.resize(depth + 1, 0);
    ++level_sizes[depth];
  }
  for (std::uint64_t size : level_sizes) {
    LBSA_OBS_HISTOGRAM_OBSERVE("explore.frontier_size", size);
  }
  LBSA_OBS_COUNTER_ADD("explore.levels", level_sizes.size());
  if (!level_sizes.empty()) {
    LBSA_OBS_GAUGE_MAX("explore.max_depth", level_sizes.size() - 1);
  }
}

// Frontier nodes per generation chunk. Doubles as the mid-level lifecycle
// polling cadence: the calling thread and every worker re-check
// cancel/deadline before each chunk, so one huge level (the dac5/dac6
// tails) cannot blow past a request deadline by more than a chunk of work
// per thread.
constexpr std::size_t kChunk = 64;

// Under kAuto, levels of at least this many nodes generate their successors
// on the worker pool. Narrower levels run inline: every level of the
// hierarchy sweep (the widest has 576 nodes), while dac5's widest levels
// (1,546–5,385 nodes) and most of dac6 pool.
constexpr std::size_t kPoolMinLevel = 1024;

// How many successors ahead the merge prefetches intern-table slots.
constexpr std::size_t kPrefetchAhead = 8;

// Generation chunks buffered per worker: generation may run this many
// chunks per worker ahead of the in-order merge, which bounds the
// successors held in memory.
constexpr std::size_t kRingPerWorker = 4;

// How long an idle worker spins before it sleeps: levels follow each other
// within microseconds, far sooner than a sleeping thread wakes.
constexpr std::chrono::microseconds kSpinBeforeSleep{1000};

// The mid-level poll: only cancel/deadline, the request-lifecycle knobs,
// trip inside a level; max_levels stays level-granular.
bool lifecycle_tripped(const ExploreOptions& options) {
  return (options.cancel != nullptr && options.cancel->cancelled()) ||
         deadline_passed(options.deadline);
}

// Publishes the explore.canon.* counters. Volatile: hit/prune tallies
// depend on which worker expanded which chunk and on cache contents carried
// over from earlier runs sharing the pool.
void add_canon_metrics(const sim::CanonScratch& s) {
  if (!obs::metrics_enabled()) return;
  LBSA_OBS_COUNTER_ADD_V("explore.canon.cache_hits", s.cache_hits);
  LBSA_OBS_COUNTER_ADD_V("explore.canon.cache_misses", s.cache_misses);
  LBSA_OBS_COUNTER_ADD_V("explore.canon.prunes", s.prunes);
  LBSA_OBS_COUNTER_ADD_V("explore.canon.fast_path", s.fast_path);
}

// Grow-only bytes that a packer writes straight into: room(n) makes n
// bytes writable past size() without zero-filling them, and commit(end)
// keeps what was written up to end.
class ByteBuffer {
 public:
  std::uint8_t* room(std::size_t n) {
    if (size_ + n > capacity_) grow(size_ + n);
    return data_.get() + size_;
  }
  void commit(const std::uint8_t* end) {
    size_ = static_cast<std::size_t>(end - data_.get());
  }
  const std::uint8_t* data() const { return data_.get(); }
  std::size_t size() const { return size_; }
  void clear() { size_ = 0; }

 private:
  void grow(std::size_t min_capacity) {
    const std::size_t capacity =
        std::max({min_capacity, capacity_ * 2, std::size_t{4096}});
    auto data = std::make_unique_for_overwrite<std::uint8_t[]>(capacity);
    if (size_ > 0) std::memcpy(data.get(), data_.get(), size_);
    data_ = std::move(data);
    capacity_ = capacity;
  }

  std::unique_ptr<std::uint8_t[]> data_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

// The successors of a run of consecutive frontier nodes, in canonical order
// (frontier order, then pids ascending, then outcome order), each with its
// intern key (the path flag, then the encoding or canonical encoding, every
// word packed) and the key's hash: everything interning needs, computed off
// the interning thread. Plain data only, so the thread that merges a batch
// frees nothing that another thread allocated.
struct Batch {
  struct Succ {
    std::int32_t pid = -1;  // the step that reached it
    sim::Action::Kind kind = sim::Action::Kind::kInvoke;
    std::uint64_t hash = 0;
    std::uint32_t begin = 0;  // offset of the key in `bytes`
    std::uint32_t size = 0;
    std::int32_t perm = -1;   // offset of the canonicalizing perm in
                              // `perms`; -1 = identity
  };
  std::vector<Succ> succs;
  std::vector<std::uint32_t> ends;  // per frontier node: one past its last
                                    // successor
  ByteBuffer bytes;
  std::vector<std::uint8_t> perms;
  std::uint64_t renamed = 0;    // successors with a non-identity perm
  std::uint64_t por_skips = 0;  // enabled processes POR left unexpanded
  bool ample = false;           // some node had an ample process

  std::span<const std::uint8_t> key(const Succ& succ) const {
    return {bytes.data() + succ.begin, succ.size};
  }
  // The stepping process's pid in the stored successor (Edge::to_pid).
  std::uint16_t to_pid(const Succ& succ) const {
    if (succ.perm < 0) return static_cast<std::uint16_t>(succ.pid);
    return perms[static_cast<std::size_t>(succ.perm + succ.pid)];
  }
  void clear() {
    succs.clear();
    ends.clear();
    bytes.clear();
    perms.clear();
    renamed = 0;
    por_skips = 0;
    ample = false;
  }
};

// Splits a node's intern key into its path flag and the packed encoding of
// its configuration (under symmetry reduction, the representative's) that
// follows it.
std::span<const std::uint8_t> split_key(std::span<const std::uint8_t> key,
                                        std::int64_t* flag) {
  std::size_t pos = 0;
  LBSA_CHECK(sim::read_packed_word(key, &pos, flag));
  return key.subspan(pos);
}

// A node's configuration and path flag, decoded straight from its intern
// key.
void decode_key_into(std::span<const std::uint8_t> key, sim::Config* out,
                     std::int64_t* flag) {
  const Status decoded =
      sim::decode_packed_config_into(split_key(key, flag), out);
  LBSA_CHECK(decoded.is_ok());
}

// Successor generation for one thread: decode, step, flag fold, encode or
// canonicalize, hash. Reads only the keys of the nodes it expands, so any
// thread may run it on any chunk; one instance per worker.
class Generator {
 public:
  Generator(const sim::Protocol& protocol, const Explorer::FlagFn& flag_fn,
            const sim::Canonicalizer* sym, bool por)
      : protocol_(&protocol), flag_fn_(&flag_fn), sym_(sym), por_(por) {}

  // Expands the nodes `ids`, whose intern keys are keys[id], into *out
  // (cleared first). Each node is decoded into one reused Config, and each
  // outcome is committed into one reused successor Config.
  void expand(std::span<const std::span<const std::uint8_t>> keys,
              std::span<const std::uint32_t> ids, Batch* out) {
    out->clear();
    for (const std::uint32_t id : ids) {
      std::int64_t flag = 0;
      decode_key_into(keys[id], &config_, &flag);
      const int ample =
          por_ ? select_ample_pid(*protocol_, config_, flag, *flag_fn_) : -1;
      if (ample >= 0) {
        out->ample = true;
        out->por_skips +=
            static_cast<std::uint64_t>(config_.enabled_count() - 1);
      }
      const int n = static_cast<int>(config_.procs.size());
      for (int pid = 0; pid < n; ++pid) {
        if (!config_.enabled(pid)) continue;
        if (ample >= 0 && pid != ample) continue;
        sim::prepare_step(*protocol_, config_, pid, &prepared_);
        for (int choice = 0; choice < prepared_.outcome_count(); ++choice) {
          successor_ = config_;
          const sim::Step step =
              sim::commit_step(*protocol_, &successor_, choice, &prepared_);
          add(successor_, step, *flag_fn_ ? (*flag_fn_)(flag, step) : flag,
              out);
        }
      }
      out->ends.push_back(static_cast<std::uint32_t>(out->succs.size()));
    }
  }

  // Appends `config`, reached by `step` with path flag `flag`, to *out:
  // its word encoding (the canonical one under symmetry reduction) into
  // the reused words_, then the flag and those words packed straight into
  // the batch.
  void add(const sim::Config& config, const sim::Step& step,
           std::int64_t flag, Batch* out) {
    Batch::Succ succ;
    succ.pid = step.pid;
    succ.kind = step.action.kind;
    succ.begin = static_cast<std::uint32_t>(out->bytes.size());
    if (sym_ != nullptr) {
      sym_->canonical_encode_into(config, &words_, &perm_, &canon_);
      if (!perm_.empty()) {
        ++out->renamed;
        succ.perm = static_cast<std::int32_t>(out->perms.size());
        out->perms.insert(out->perms.end(), perm_.begin(), perm_.end());
      }
    } else {
      words_.resize(config.encoded_size());
      config.encode_to(words_.data());
    }
    std::uint8_t* end =
        out->bytes.room(sim::kMaxPackedWordBytes * (words_.size() + 1));
    end = sim::pack_words(words_, sim::pack_word(flag, end));
    out->bytes.commit(end);
    succ.size = static_cast<std::uint32_t>(out->bytes.size() - succ.begin);
    succ.hash = hash_bytes(out->key(succ));
    out->succs.push_back(succ);
  }

  sim::CanonScratch* canon_scratch() { return &canon_; }

 private:
  const sim::Protocol* protocol_;
  const Explorer::FlagFn* flag_fn_;
  const sim::Canonicalizer* sym_;
  bool por_;
  sim::Config config_;     // the node being expanded
  sim::Config successor_;  // config_ after one outcome
  sim::PreparedStep prepared_;
  sim::CanonScratch canon_;
  std::vector<std::int64_t> words_;  // the successor's encoding
  std::vector<std::uint8_t> perm_;
};

// Worker threads that generate a wide level's chunks while the calling
// thread merges them in order. Chunk c is generated into ring slot
// c % ring size, and chunks are claimed in order, only inside the window
// [merged, merged + ring size): at most a ring's worth of successors is
// buffered, and no thread waits while holding a claim. The calling thread
// never sleeps inside a level: when the chunk it needs next is unclaimed it
// generates the chunk itself, else it yields until a worker publishes it.
// Idle workers spin briefly before they sleep. Waking a sleeping thread can
// take milliseconds on a virtualized host, longer than most levels take.
class GeneratorPool {
 public:
  // The calling thread generates with gens[0], worker w with gens[w + 1].
  GeneratorPool(std::vector<Generator>* gens, const ExploreOptions& options)
      : gens_(gens),
        options_(options),
        ring_(kRingPerWorker * (gens->size() - 1)),
        ready_(new std::atomic<std::size_t>[ring_.size()]) {
    if (obs::tracing_enabled()) {
      obs::Tracer::global().set_lane_name(0, "coordinator");
    }
    for (std::size_t w = 0; w + 1 < gens->size(); ++w) {
      if (obs::tracing_enabled()) {
        obs::Tracer::global().set_lane_name(static_cast<int>(w) + 1,
                                            "worker " + std::to_string(w));
      }
      threads_.emplace_back([this, w] { work(w); });
    }
  }

  ~GeneratorPool() {
    stop_ = true;
    shutdown_ = true;
    wake();
    for (std::thread& t : threads_) t.join();
  }

  // Hands the workers the chunks of `frontier` (see Generator::expand).
  // `keys` must not change until finish_level() returns. Workers read
  // these fields only once they see level_ change.
  void start_level(std::span<const std::span<const std::uint8_t>> keys,
                   std::span<const std::uint32_t> frontier) {
    keys_ = keys;
    frontier_ = frontier;
    chunks_ = (frontier.size() + kChunk - 1) / kChunk;
    next_ = 0;
    merged_ = 0;
    for (std::size_t i = 0; i < ring_.size(); ++i) ready_[i] = 0;
    stop_ = false;
    busy_ = threads_.size();
    ++level_;
    wake();
  }

  // The generated batch of chunk c, or nullptr once the level has been
  // stopped on a cancel/deadline trip.
  const Batch* wait(std::size_t c) {
    while (ready_[c % ring_.size()].load(std::memory_order_acquire) != c + 1) {
      if (stop_) return nullptr;
      std::size_t unclaimed = c;
      if (next_.compare_exchange_strong(unclaimed, c + 1)) {
        generate(0, c);
      } else {
        std::this_thread::yield();
      }
    }
    return stop_ ? nullptr : &ring_[c % ring_.size()];
  }

  // Chunk c is merged: its slot may be refilled.
  void release(std::size_t c) {
    merged_ = c + 1;
    wake();
  }

  // Returns once every worker has left the level; with `stop`, workers
  // first stop claiming chunks.
  void finish_level(bool stop) {
    if (stop) {
      stop_ = true;
      wake();
    }
    while (busy_ > 0) std::this_thread::yield();
  }

 private:
  // Claims the next chunk if it lies inside the window.
  bool claim(std::size_t* k) {
    std::size_t next = next_;
    while (next < chunks_ && next < merged_ + ring_.size()) {
      if (next_.compare_exchange_weak(next, next + 1)) {
        *k = next;
        return true;
      }
    }
    return false;
  }

  // Generates chunk k with gens[g] and publishes it; returns its size.
  std::size_t generate(std::size_t g, std::size_t k) {
    const std::span<const std::uint32_t> ids = frontier_.subspan(
        k * kChunk, std::min(kChunk, frontier_.size() - k * kChunk));
    (*gens_)[g].expand(keys_, ids, &ring_[k % ring_.size()]);
    ready_[k % ring_.size()].store(k + 1, std::memory_order_release);
    return ids.size();
  }

  // Wakes sleeping workers after a change of state. Taking mu_ orders the
  // change before any sleeper's last check of its condition.
  void wake() {
    if (sleepers_ == 0) return;
    { std::lock_guard<std::mutex> lock(mu_); }
    cv_.notify_all();
  }

  // Returns once ready() holds: spins for kSpinBeforeSleep, then sleeps.
  template <typename Ready>
  void await(const Ready& ready) {
    const auto spin_until = std::chrono::steady_clock::now() + kSpinBeforeSleep;
    while (!ready()) {
      if (std::chrono::steady_clock::now() < spin_until) {
        std::this_thread::yield();
        continue;
      }
      std::unique_lock<std::mutex> lock(mu_);
      ++sleepers_;
      cv_.wait(lock, ready);
      --sleepers_;
    }
  }

  void work(std::size_t w) {
    std::uint64_t seen = 0;
    while (true) {
      await([&] { return shutdown_ || level_ != seen; });
      if (shutdown_) return;
      seen = level_;
      {
        // One span per worker per pooled level, on the worker's own lane.
        // It closes before the worker reports done, so it lies inside the
        // calling thread's "explore.level" span.
        obs::Span span("explore.worker", obs::kCatWorker,
                       static_cast<int>(w) + 1);
        std::int64_t expanded = 0;
        while (!stop_ && next_ < chunks_) {
          if (lifecycle_tripped(options_)) {
            stop_ = true;
            break;
          }
          std::size_t k = 0;
          if (!claim(&k)) {
            await([&] {
              return stop_ || next_ >= chunks_ ||
                     next_ < merged_ + ring_.size();
            });
            continue;
          }
          expanded += static_cast<std::int64_t>(generate(w + 1, k));
        }
        span.arg("expanded", expanded);
      }
      --busy_;
    }
  }

  std::vector<Generator>* gens_;
  const ExploreOptions& options_;
  std::vector<Batch> ring_;
  // ready_[slot] == c + 1: chunk c has been generated into the slot.
  std::unique_ptr<std::atomic<std::size_t>[]> ready_;
  std::span<const std::span<const std::uint8_t>> keys_;
  std::span<const std::uint32_t> frontier_;
  std::size_t chunks_ = 0;
  std::atomic<std::size_t> next_ = 0;    // next chunk to claim
  std::atomic<std::size_t> merged_ = 0;  // chunks merged so far
  std::atomic<std::uint64_t> level_ = 0;
  std::atomic<std::size_t> busy_ = 0;  // workers not yet done with the level
  std::atomic<bool> stop_ = false;
  std::atomic<bool> shutdown_ = false;
  std::atomic<int> sleepers_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::thread> threads_;
};

// The intern table: open addressing over (hash, key, id) slots, with each
// key's bytes copied once into the graph's key arena, padded to whole
// words. A probe reads the stored bytes only on a full hash match, and
// prefetch() lets the merge loop pull a slot into cache before it is
// probed.
class KeyIndex {
 public:
  explicit KeyIndex(WordArena* arena)
      : slots_(std::size_t{1} << 10), arena_(arena) {}

  void prefetch(std::uint64_t hash) const {
    __builtin_prefetch(&slots_[hash & (slots_.size() - 1)]);
  }

  struct Found {
    std::uint32_t id = 0;
    std::span<const std::uint8_t> key;  // the stored copy
    bool inserted = false;
  };
  // Looks `key` up, storing it as node `id` if absent.
  Found intern(std::span<const std::uint8_t> key, std::uint64_t hash,
               std::uint32_t id) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.bytes == nullptr) {
        auto* bytes = reinterpret_cast<std::uint8_t*>(
            arena_->alloc((key.size() + 7) / 8));
        std::memcpy(bytes, key.data(), key.size());
        slot = Slot{hash, bytes, static_cast<std::uint32_t>(key.size()), id};
        if (++count_ * 2 > slots_.size()) grow();
        return {id, {bytes, key.size()}, true};
      }
      if (slot.hash == hash && slot.size == key.size() &&
          std::memcmp(key.data(), slot.bytes, key.size()) == 0) {
        return {slot.id, {slot.bytes, slot.size}, false};
      }
    }
  }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    const std::uint8_t* bytes = nullptr;  // null: empty slot
    std::uint32_t size = 0;
    std::uint32_t id = 0;
  };

  void grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.bytes == nullptr) continue;
      std::size_t i = slot.hash & mask;
      while (slots_[i].bytes != nullptr) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t count_ = 0;
  WordArena* arena_;
};

// Edge i of `edges` as a step choice: its index among the outcomes of its
// pid's step, which the explorer emits consecutively in outcome order.
int outcome_index(std::span<const Edge> edges, std::size_t i) {
  int k = 0;
  while (static_cast<std::size_t>(k) < i &&
         edges[i - 1 - static_cast<std::size_t>(k)].pid == edges[i].pid) {
    ++k;
  }
  return k;
}

// True iff `perm` maps every pid to itself.
bool is_identity(std::span<const std::uint8_t> perm) {
  for (std::size_t p = 0; p < perm.size(); ++p) {
    if (perm[p] != p) return false;
  }
  return true;
}

}  // namespace

sim::Config ConfigGraph::config(std::uint32_t id) const {
  sim::Config out;
  config_into(id, &out);
  return out;
}

void ConfigGraph::config_into(std::uint32_t id, sim::Config* out) const {
  std::int64_t flag = 0;
  decode_key_into(key(id), out, &flag);
}

std::int64_t ConfigGraph::flag(std::uint32_t id) const {
  std::int64_t flag = 0;
  split_key(key(id), &flag);
  return flag;
}

std::span<const std::uint8_t> ConfigGraph::packed_config(
    std::uint32_t id) const {
  std::int64_t flag = 0;
  return split_key(key(id), &flag);
}

sim::Step ConfigGraph::edge_step(std::uint32_t from,
                                 const sim::Config& from_config,
                                 std::uint32_t edge) const {
  const std::span<const Edge> out = edges(from);
  sim::Config successor = from_config;
  return sim::apply_step(*protocol_, &successor, out[edge].pid,
                         outcome_index(out, edge));
}

sim::Step ConfigGraph::parent_step(std::uint32_t id) const {
  LBSA_CHECK(id != root());
  const Parent& parent = parents_[id];
  return edge_step(parent.id, config(parent.id), parent.edge);
}

std::vector<Node> ConfigGraph::nodes() const {
  std::vector<Node> out;
  out.reserve(node_count());
  for (std::uint32_t id = 0; id < node_count(); ++id) {
    out.push_back(Node{config(id), flag(id), depth(id)});
  }
  return out;
}

std::vector<sim::Step> ConfigGraph::path_to(std::uint32_t id) const {
  std::vector<std::uint32_t> chain;  // nodes after the root, in path order
  for (std::uint32_t cur = id; cur != root(); cur = parents_[cur].id) {
    chain.push_back(cur);
  }
  std::reverse(chain.begin(), chain.end());

  // Replay the discovering edges from the initial configuration. On a
  // symmetry-reduced graph every edge acted in its source's
  // *representative* space, so the raw parent chain is generally not an
  // execution of the protocol. Lift it: maintain σ, the renaming that maps
  // the concrete run being rebuilt onto the stored representative of the
  // current node (σ starts as the root's discovery perm and composes each
  // node's on the way down; it stays the identity without symmetry
  // reduction). An edge by representative pid r lifts to a concrete step
  // by σ⁻¹(r) with the same outcome index (renaming maps outcome lists
  // elementwise in order — see sim/symmetry.h).
  const sim::Protocol& protocol = *protocol_;
  const int n = protocol.process_count();
  std::vector<int> sigma(static_cast<std::size_t>(n));
  std::iota(sigma.begin(), sigma.end(), 0);
  auto compose = [&](std::uint32_t v) {
    const std::span<const std::uint8_t> pi = discovery_perm(v);
    if (pi.empty()) return;
    for (int& image : sigma) image = pi[static_cast<std::size_t>(image)];
  };
  compose(root());

  sim::Config concrete = sim::initial_config(protocol);
  std::vector<sim::Step> steps;
  steps.reserve(chain.size());
  for (std::uint32_t v : chain) {
    const Parent& parent = parents_[v];
    const std::span<const Edge> out = edges(parent.id);
    const auto concrete_pid =
        std::find(sigma.begin(), sigma.end(), out[parent.edge].pid);
    LBSA_CHECK(concrete_pid != sigma.end());
    steps.push_back(sim::apply_step(
        protocol, &concrete, static_cast<int>(concrete_pid - sigma.begin()),
        outcome_index(out, parent.edge)));
    compose(v);
  }
  // Certify the replay: renaming the concrete endpoint by σ must reproduce
  // the stored configuration bit for bit.
  if (!perms_.empty()) sim::apply_pid_permutation(protocol, sigma, &concrete);
  std::vector<std::uint8_t> replayed;
  sim::pack_words(concrete.encode(), &replayed);
  LBSA_CHECK_MSG(std::ranges::equal(replayed, packed_config(id)),
                 "path replay failed to land on the stored configuration");
  return steps;
}

std::uint64_t ConfigGraph::full_node_estimate() const {
  if (canonicalizer_ == nullptr) return node_count();
  std::uint64_t total = 0;
  sim::Config config;
  sim::CanonScratch scratch;
  for (std::uint32_t id = 0; id < node_count(); ++id) {
    config_into(id, &config);
    total += canonicalizer_->orbit_size(config, &scratch);
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

// ---------------------------------------------------------------------------
// The explorer: level-synchronous BFS. Each level's successors are
// generated chunk by chunk — inline, or on the worker pool for wide levels —
// and interned on this thread in canonical order, which defines the graph:
// node ids in BFS discovery order (frontier in id order; within a node,
// pids ascending, then outcome order), parents from the discovering edge,
// depths from level-synchronous discovery.
// ---------------------------------------------------------------------------

StatusOr<ConfigGraph> Explorer::explore(const ExploreOptions& options,
                                        FlagFn flag_fn,
                                        std::int64_t initial_flag) const {
  if (options.threads > kMaxThreads) {
    return invalid_argument("explore: threads " +
                            std::to_string(options.threads) +
                            " exceeds the maximum of " +
                            std::to_string(kMaxThreads));
  }
  const int threads =
      options.threads > 0
          ? options.threads
          : std::clamp(static_cast<int>(std::thread::hardware_concurrency()),
                       1, kMaxThreads);

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

  // Install a private orbit-cache pool when symmetry is on and the caller
  // did not share one. The pool only accelerates canonical_encode_into — it
  // never shapes the graph — so it deliberately stays outside the
  // fingerprint. Small groups are exempt: below ~64 elements the tie-class
  // search is already cheaper than hashing the raw encoding plus the
  // hit-verify memcmp, so a cache is pure overhead (measured on dac5-sym,
  // group 24). Callers that pass an explicit pool — the hierarchy sweep,
  // the equivalence tests — are always honored.
  constexpr std::size_t kCanonCacheMinGroup = 64;
  std::shared_ptr<sim::CanonCachePool> cache_pool = options.canon_cache_pool;
  if (sym != nullptr && cache_pool == nullptr &&
      options.canon_cache_bytes > 0 &&
      sym->group_size() >= kCanonCacheMinGroup) {
    cache_pool =
        std::make_shared<sim::CanonCachePool>(options.canon_cache_bytes);
  }

  const sim::Protocol& protocol = *protocol_;
  const std::size_t n = static_cast<std::size_t>(protocol.process_count());
  ConfigGraph graph;
  graph.protocol_ = protocol_;
  graph.process_count_ = n;
  KeyIndex index(&graph.key_arena_);
  // The keys of the level's new nodes. They join graph.keys_ only when the
  // level is complete, so workers can read graph.keys_ meanwhile; the other
  // per-node arrays grow as nodes are interned.
  std::vector<std::span<const std::uint8_t>> fresh_keys;

  // Interns successor i of `batch`, discovered by `parent` at `depth`.
  // Returns the node's id and whether it is new.
  auto intern = [&](const Batch& batch, std::size_t i,
                    ConfigGraph::Parent parent,
                    std::uint32_t depth) -> std::pair<std::uint32_t, bool> {
    const Batch::Succ& succ = batch.succs[i];
    const KeyIndex::Found found =
        index.intern(batch.key(succ), succ.hash, graph.node_count());
    if (!found.inserted) return {found.id, false};
    fresh_keys.push_back(found.key);
    graph.depths_.push_back(depth);
    graph.parents_.push_back(parent);
    if (sym != nullptr) {
      if (succ.perm >= 0) {
        const auto first = batch.perms.begin() + succ.perm;
        graph.perms_.insert(graph.perms_.end(), first,
                            first + static_cast<std::ptrdiff_t>(n));
      } else {
        for (std::size_t p = 0; p < n; ++p) {
          graph.perms_.push_back(static_cast<std::uint8_t>(p));
        }
      }
    }
    return {found.id, true};
  };
  auto flush_fresh = [&] {
    graph.keys_.insert(graph.keys_.end(), fresh_keys.begin(),
                       fresh_keys.end());
    fresh_keys.clear();
  };

  // gens[i] canonicalizes with orbit cache i of the run's cache pool, if
  // any. Caches are keyed by the canonicalizer's universe salt, so a pool
  // shared across hierarchy-sweep cells self-invalidates when the protocol
  // changes.
  std::vector<Generator> gens;
  gens.reserve(static_cast<std::size_t>(threads) + 1);
  auto add_generator = [&] {
    gens.emplace_back(protocol, flag_fn, sym.get(), por);
    if (sym != nullptr && cache_pool != nullptr) {
      gens.back().canon_scratch()->attach_cache(
          cache_pool->worker_cache(gens.size() - 1, sym->universe_salt()));
    }
  };
  add_generator();

  std::vector<std::uint32_t> frontier;
  std::uint32_t start_depth = 0;
  if (options.resume != nullptr) {
    // Seed the canonical prefix directly (NOT through intern(): resumed
    // nodes must not re-bump explore.nodes — the counters describe work done
    // this session). The checkpoint stores representatives, so each node's
    // flag and words, packed, are its intern key even under symmetry
    // reduction.
    // The graph's structure is validated here, so a malformed checkpoint
    // (the files are checksummed, so a hand-edited one) fails cleanly: the
    // words decode, keys are distinct, edge lists are ordered by pid, each
    // edge's to_pid is a renaming of its pid, every parent step names an
    // edge of its parent that leads to the node, and perms and counts are
    // consistent. Steps are not replayed (that would decode every node): an
    // edge whose target is not the configuration its step reaches passes
    // here and aborts on path_to's certify check, and a to_pid naming the
    // wrong member of its pid's orbit passes unnoticed.
    const ExploreCheckpoint& cp = *options.resume;
    const auto count = static_cast<std::uint32_t>(cp.node_words.size());
    sim::Config decoded;
    std::vector<std::uint8_t> seed_key;
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::span<const std::int64_t> words = cp.node_words[i];
      if (const Status s = sim::decode_config_into(words, &decoded);
          !s.is_ok()) {
        return s;
      }
      seed_key.clear();
      sim::pack_words(std::span(&cp.node_flags[i], 1), &seed_key);
      sim::pack_words(words, &seed_key);
      const KeyIndex::Found found =
          index.intern(seed_key, hash_bytes(seed_key), i);
      if (!found.inserted) {
        return invalid_argument("resume: duplicate checkpoint node");
      }
      graph.keys_.push_back(found.key);
      graph.depths_.push_back(cp.node_depths[i]);

      // The discovering edge is the parent's edge that the parent step
      // names: its pid's outcome_choice-th outcome, leading to node i. The
      // parent precedes node i, so its edge list was already checked to be
      // ordered by pid, and this count agrees with outcome_index().
      ConfigGraph::Parent parent;
      if (i != 0) {
        parent.id = cp.parents[i];
        const sim::Step& step = cp.parent_steps[i];
        const std::span<const Edge> out = cp.edges[parent.id];
        int outcome = 0;
        std::size_t e = 0;
        for (; e < out.size(); ++e) {
          if (out[e].pid == step.pid && outcome++ == step.outcome_choice) {
            break;
          }
        }
        if (e == out.size() || out[e].to != i) {
          return invalid_argument("resume: the parent step of node " +
                                  std::to_string(i) +
                                  " names no edge of its parent");
        }
        parent.edge = static_cast<std::uint32_t>(e);
      }
      graph.parents_.push_back(parent);

      const std::span<const Edge> out = cp.edges[i];
      for (std::size_t e = 0; e < out.size(); ++e) {
        if (out[e].pid < 0 || static_cast<std::size_t>(out[e].pid) >= n) {
          return invalid_argument("resume: edge pid " +
                                  std::to_string(out[e].pid) +
                                  " out of range");
        }
        // An edge's outcome index is its position in its pid's run of
        // edges (outcome_index()), so each pid's edges must be consecutive:
        // pids ascend, as the explorer emits them.
        if (e > 0 && out[e].pid < out[e - 1].pid) {
          return invalid_argument("resume: the edges of node " +
                                  std::to_string(i) +
                                  " are not ordered by pid");
        }
        // The solo-termination walk follows an edge to (to, to_pid): a
        // renaming can only map pid within its orbit, and without one
        // to_pid is pid.
        const std::size_t pid = static_cast<std::size_t>(out[e].pid);
        const std::size_t to_pid = out[e].to_pid;
        if (to_pid >= n) {
          return invalid_argument("resume: edge to_pid " +
                                  std::to_string(to_pid) + " out of range");
        }
        const bool renamed_in_orbit =
            sym == nullptr ? to_pid == pid
                           : sym->spec().orbit_of[to_pid] ==
                                 sym->spec().orbit_of[pid];
        if (!renamed_in_orbit) {
          return invalid_argument("resume: edge to_pid " +
                                  std::to_string(to_pid) +
                                  " is not a renaming of its pid " +
                                  std::to_string(pid));
        }
      }
      if (!out.empty()) {
        graph.open_edges(i);
        graph.edges_.insert(graph.edges_.end(), out.begin(), out.end());
      }

      if (sym != nullptr) {
        // An empty perm is the identity.
        const std::span<const std::uint8_t> perm = cp.discovery_perms[i];
        const std::size_t row = graph.perms_.size();
        for (std::size_t p = 0; p < n; ++p) {
          graph.perms_.push_back(static_cast<std::uint8_t>(p));
        }
        if (!perm.empty()) {
          if (!std::is_permutation(perm.begin(), perm.end(),
                                   graph.perms_.begin() + row,
                                   graph.perms_.end())) {
            return invalid_argument(
                "resume: discovery perm is not a permutation of the "
                "processes");
          }
          std::copy(perm.begin(), perm.end(), graph.perms_.begin() + row);
        }
      }
    }
    if (cp.transition_count != graph.edges_.size()) {
      return invalid_argument(
          "resume: transition count disagrees with the edge lists");
    }
    // Frontier nodes are expanded after every node that already has edges,
    // so their edge lists extend the CSR arrays in order.
    if (!cp.frontier.empty() &&
        cp.frontier.front() < graph.edge_begin_.size()) {
      return invalid_argument("resume: frontier node already has edges");
    }
    graph.truncated_ = cp.truncated;
    frontier = cp.frontier;
    start_depth = cp.levels_completed;
  } else {
    Batch root;
    gens[0].add(sim::initial_config(protocol), sim::Step{}, initial_flag,
                &root);
    intern(root, 0, ConfigGraph::Parent{}, 0);
    flush_fresh();
    LBSA_OBS_COUNTER_ADD("explore.nodes", 1);
    if (root.renamed > 0) LBSA_OBS_COUNTER_ADD("explore.sym.renamed", 1);
    frontier.push_back(0);
  }

  // Writes the graph, paused at the start of level `depth` with `frontier`
  // pending, to options.checkpoint_path.
  auto write_checkpoint = [&](std::uint32_t depth) -> Status {
    LBSA_OBS_COUNTER_ADD_V("explore.checkpoint.writes", 1);
    ExploreCheckpoint cp;
    cp.fingerprint = fingerprint;
    cp.task_label = options.checkpoint_label;
    cp.reduction = options.reduction;
    cp.initial_flag = initial_flag;
    cp.has_flag_fn = flag_fn != nullptr;
    cp.max_nodes = options.max_nodes;
    cp.allow_truncation = options.allow_truncation;
    cp.truncated = graph.truncated_;
    cp.transition_count = graph.transition_count();
    cp.levels_completed = depth;
    // Close every edge list for edges(), then reopen the unexpanded ones.
    const std::size_t opened = graph.edge_begin_.size();
    graph.open_edges(graph.node_count());
    // Parent steps are rebuilt from the parent's configuration. Parents
    // are non-decreasing in id order, so each is decoded once.
    sim::Config parent_config;
    std::uint32_t decoded = graph.root();
    graph.config_into(decoded, &parent_config);
    std::vector<std::int64_t> words;
    for (std::uint32_t id = 0; id < graph.node_count(); ++id) {
      std::int64_t flag = 0;
      LBSA_CHECK(sim::unpack_words(split_key(graph.key(id), &flag), &words));
      cp.node_words.push_back(words);
      cp.node_flags.push_back(flag);
      cp.node_depths.push_back(graph.depth(id));
      cp.parents.push_back(graph.parent(id));
      sim::Step step;  // the root's stays default
      if (id != graph.root()) {
        const std::uint32_t parent = graph.parent(id);
        if (parent != decoded) {
          decoded = parent;
          graph.config_into(decoded, &parent_config);
        }
        step = graph.edge_step(parent, parent_config, graph.parent_edge(id));
      }
      cp.parent_steps.push_back(step);
      if (sym != nullptr) {
        // The file stores the identity as an empty perm.
        const std::span<const std::uint8_t> perm = graph.discovery_perm(id);
        cp.discovery_perms.push_back(
            is_identity(perm) ? std::span<const std::uint8_t>() : perm);
      }
      cp.edges.push_back(graph.edges(id));
    }
    graph.edge_begin_.resize(opened);
    cp.frontier = frontier;
    return write_explore_checkpoint(cp, options.checkpoint_path);
  };
  // Stops the run at the start of level `depth` with `frontier` pending:
  // the one state a checkpoint can represent and a resume can reproduce.
  auto interrupt = [&](std::uint32_t depth) -> Status {
    graph.interrupted_ = true;
    graph.levels_completed_ = depth;
    graph.pending_frontier_ = frontier;
    if (options.checkpoint_path.empty()) return Status::ok();
    return write_checkpoint(depth);
  };

  std::optional<GeneratorPool> pool;  // started by the first pooled level
  Batch inline_batch;
  std::uint32_t depth = start_depth;
  for (; !frontier.empty(); ++depth) {
    const std::uint32_t session_levels = depth - start_depth;
    if (session_levels > 0) {
      // Level boundary: every node of depth < `depth` is expanded and
      // `frontier` holds exactly the depth-`depth` nodes in ascending id
      // order. All level-granular lifecycle actions happen here.
      if (lifecycle_tripped(options) ||
          (options.max_levels > 0 && session_levels >= options.max_levels)) {
        const Status written = interrupt(depth);
        if (!written.is_ok()) return written;
        break;
      }
      if (!options.checkpoint_path.empty() &&
          options.checkpoint_every_levels > 0 &&
          session_levels % options.checkpoint_every_levels == 0) {
        const Status written = write_checkpoint(depth);
        if (!written.is_ok()) return written;
      }
    }
    obs::Span level_span("explore.level", obs::kCatPhase, /*lane=*/0);
    level_span.arg("level", depth);
    level_span.arg("nodes", static_cast<std::int64_t>(frontier.size()));

    const bool pooled =
        options.engine == ExploreEngine::kParallel ||
        (options.engine == ExploreEngine::kAuto && threads > 1 &&
         frontier.size() >= kPoolMinLevel);
    if (pooled) {
      if (!pool) {
        while (gens.size() < static_cast<std::size_t>(threads) + 1) {
          add_generator();
        }
        pool.emplace(&gens, options);
      }
      pool->start_level(graph.keys_, frontier);
      graph.engine_used_ = ExploreEngine::kParallel;
    }

    // Rollback point for a mid-level stop.
    const std::uint32_t level_nodes = graph.node_count();
    const std::size_t level_edges = graph.edges_.size();
    const std::size_t level_opened = graph.edge_begin_.size();
    const bool level_truncated = graph.truncated_;
    std::vector<std::uint32_t> next;
    bool stopped = false;
    for (std::size_t c = 0; c * kChunk < frontier.size(); ++c) {
      const std::span<const std::uint32_t> ids =
          std::span<const std::uint32_t>(frontier).subspan(
              c * kChunk, std::min(kChunk, frontier.size() - c * kChunk));
      if (c > 0 && lifecycle_tripped(options)) {
        stopped = true;
        break;
      }
      const Batch* batch = &inline_batch;
      if (pooled) {
        batch = pool->wait(c);
        if (batch == nullptr) {
          stopped = true;
          break;
        }
      } else {
        gens[0].expand(graph.keys_, ids, &inline_batch);
      }
      std::uint64_t inserted = 0;
      std::size_t s = 0;
      for (std::size_t j = 0; j < ids.size(); ++j) {
        graph.open_edges(ids[j]);
        const std::uint64_t first_edge = graph.edge_begin_[ids[j]];
        for (; s < batch->ends[j]; ++s) {
          // Probing is the merge's main cost: fetch a later probe's slot
          // while this one runs.
          if (s + kPrefetchAhead < batch->succs.size()) {
            index.prefetch(batch->succs[s + kPrefetchAhead].hash);
          }
          const Batch::Succ& succ = batch->succs[s];
          const ConfigGraph::Parent parent{
              ids[j], static_cast<std::uint32_t>(graph.edges_.size() -
                                                 first_edge)};
          const auto [to, is_new] = intern(*batch, s, parent, depth + 1);
          graph.edges_.push_back(
              Edge{to, succ.pid, succ.kind, batch->to_pid(succ)});
          if (!is_new) continue;
          ++inserted;
          if (graph.node_count() > options.max_nodes) {
            if (!options.allow_truncation) {
              return resource_exhausted("explore: node budget exceeded (" +
                                        std::to_string(options.max_nodes) +
                                        ")");
            }
            // Truncation invariant: the over-budget node is KEPT (the edge
            // just emitted has a valid target and path_to(to) replays) but,
            // by skipping the frontier push, never expanded.
            graph.truncated_ = true;
            continue;
          }
          next.push_back(to);
        }
      }
      if (!batch->succs.empty()) {
        LBSA_OBS_COUNTER_ADD("explore.transitions", batch->succs.size());
      }
      if (inserted > 0) LBSA_OBS_COUNTER_ADD("explore.nodes", inserted);
      if (batch->renamed > 0) {
        LBSA_OBS_COUNTER_ADD("explore.sym.renamed", batch->renamed);
      }
      if (batch->ample) {
        LBSA_OBS_COUNTER_ADD("explore.por.skips", batch->por_skips);
      }
      if (pooled) pool->release(c);  // the slot may be refilled from here on
    }
    if (pooled) pool->finish_level(stopped);
    if (stopped) {
      // Roll back to the level start: drop every node discovered during
      // this partial level and the edges its expansions emitted, so the
      // result is the graph a boundary-time stop would produce. The keys
      // they left in the arena are never referenced.
      graph.depths_.resize(level_nodes);
      graph.parents_.resize(level_nodes);
      if (sym != nullptr) graph.perms_.resize(level_nodes * n);
      fresh_keys.clear();
      graph.edges_.resize(level_edges);
      graph.edge_begin_.resize(level_opened);
      graph.truncated_ = level_truncated;
      const Status written = interrupt(depth);
      if (!written.is_ok()) return written;
      break;
    }
    flush_fresh();
    frontier = std::move(next);
  }
  graph.open_edges(graph.node_count());
  if (!graph.interrupted_) {
    graph.levels_completed_ = graph.depths_.back() + 1;
  }
  if (sym != nullptr) {
    for (Generator& gen : gens) add_canon_metrics(*gen.canon_scratch());
  }
  LBSA_CHECK(graph.keys_.size() == graph.node_count() &&
             graph.parents_.size() == graph.node_count() &&
             graph.edge_begin_.size() == graph.node_count() + std::size_t{1});
  record_graph_metrics(graph);
  graph.reduction_ = options.reduction;
  graph.canonicalizer_ = std::move(sym);
  return graph;
}

}  // namespace lbsa::modelcheck
