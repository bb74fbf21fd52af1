// Process-renaming symmetry: the machinery behind the explorer's quotient
// (symmetry-reduced) state graphs.
//
// The paper's protocols are symmetric under renaming of like processes —
// "indistinguishable to p" arguments rename whole runs — and the model
// checker exploits exactly that: a protocol declares which pids are
// interchangeable (a SymmetrySpec partition into orbits), and every
// explored configuration is replaced by the lexicographically-minimal
// member of its orbit before interning. The explorer then searches the
// quotient graph, which shrinks by up to the symmetry-group order.
//
// Contract for a protocol declaring a non-trivial SymmetrySpec:
//   1. pids in one orbit have identical initial locals (checked eagerly by
//      the Canonicalizer constructor);
//   2. locals are pid-free: pid-derived data (labels, process names) lives
//      in objects, whose spec::ObjectType::rename_pids rewrites it;
//   3. next_action / on_response commute with renaming: renaming the pid
//      and rewriting the objects' pid-valued words maps steps to steps,
//      outcome lists elementwise in order — exercised end to end by the
//      cross-validation suite in tests/modelcheck/reduction_test.cc.
//
// The canonical search never scans the group (docs/checking.md,
// "Canonicalization cost"). With pid-free locals a renaming only moves
// whole process blocks between the slots of one orbit, and the process
// section precedes the objects in the encoding, so the minimum puts each
// orbit's blocks in ascending order. Only renamings among *equal* blocks
// (tie classes) remain, and only the pid-storing objects can tell them
// apart. An optional per-worker CanonCache short-circuits repeat
// configurations entirely. Both are exact: the representative is always the
// true lexicographic minimum and the recorded permutation is the first
// group element achieving it, bit-identical to the brute-force reference
// (kept as Canonicalizer::brute_force_canonical_encode_into and
// cross-checked by tests/sim/symmetry_test.cc).
#ifndef LBSA_SIM_SYMMETRY_H_
#define LBSA_SIM_SYMMETRY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "base/hashing.h"

namespace lbsa::sim {

class Protocol;
struct Config;

// A partition of the pids [0, n) into orbits of interchangeable processes.
// orbit_of[pid] is the orbit id; pids sharing an id may be renamed into one
// another. Singleton orbits declare no symmetry for that pid.
struct SymmetrySpec {
  std::vector<int> orbit_of;

  // No symmetry: every pid its own orbit.
  static SymmetrySpec none(int n);
  // Full S_n: all pids interchangeable.
  static SymmetrySpec full(int n);
  // Groups pids with equal keys (e.g. equal inputs) into one orbit; pids in
  // `fixed` (e.g. a DAC's distinguished process) get singleton orbits
  // regardless of their key.
  static SymmetrySpec by_value(const std::vector<std::int64_t>& keys,
                               const std::vector<int>& fixed = {});

  int process_count() const { return static_cast<int>(orbit_of.size()); }
  // True iff every orbit is a singleton (the group is trivial).
  bool trivial() const;
  // True iff pid's orbit contains no other process.
  bool is_singleton(int pid) const;

  friend bool operator==(const SymmetrySpec&, const SymmetrySpec&) = default;
};

// The pids bucketed by orbit id, buckets in first-seen order, members
// ascending: the order symmetry_group enumerates in.
std::vector<std::vector<int>> orbit_buckets(const SymmetrySpec& spec);

// All pid permutations the spec generates (every product of intra-orbit
// permutations), in a deterministic order with the identity first.
// perm[old_pid] = new_pid. LBSA_CHECKs against absurdly large groups, with
// a message naming the offending orbit sizes.
std::vector<std::vector<int>> symmetry_group(const SymmetrySpec& spec);

// Renames processes in place: process p's automaton state moves to slot
// perm[p], and pid-valued words inside each object state are rewritten via
// spec::ObjectType::rename_pids (locals are pid-free, see above).
void apply_pid_permutation(const Protocol& protocol, std::span<const int> perm,
                           Config* config);

// A fixed-size, lossy, fingerprint-keyed map from a configuration's raw
// (identity) encoding to its canonical encoding plus discovery permutation.
// Successors of canonical states are overwhelmingly already-canonical or
// repeat across the frontier, so this converts most canonical searches into
// one hash + one word-compare + one copy.
//
// Semantics: direct-mapped on Hash128.lo, collisions evict, and a full
// raw-key verify guards every fingerprint match — a hit is always exact, a
// miss merely costs the search, so the cache can never change which
// representative is produced (the bit-identical-graph guarantee is
// preserved by construction). Payload words live in one flat arena; when it
// fills, the whole cache is wholesale-reset (epoch clear) rather than
// evicted piecemeal, keeping the hot path allocation-free.
//
// NOT thread-safe: one instance per worker (see CanonCachePool).
class CanonCache {
 public:
  // Total memory budget in bytes (slot headers + payload arena), clamped to
  // a small minimum. A few MiB holds every distinct frontier configuration
  // of the corpus-sized tasks.
  explicit CanonCache(std::size_t bytes);

  // Clears the cache iff `salt` differs from the last universe seen. The
  // salt fingerprints the (protocol, spec) pair (see
  // Canonicalizer::universe_salt), so one cache can be shared across the
  // hierarchy sweep's per-cell checks: reruns of the same universe stay
  // warm, a different universe can never serve stale entries.
  void ensure_universe(std::uint64_t salt);

  // Exact lookup: true iff `raw` is cached, filling *out (and *perm if
  // non-null; empty = identity). `fp` must be hash_words_128(raw).
  bool lookup(const Hash128& fp, std::span<const std::int64_t> raw,
              std::vector<std::int64_t>* out,
              std::vector<std::uint8_t>* perm) const;

  // Inserts (overwriting any slot collision; no-op if the payload is larger
  // than the whole arena). perm empty = identity.
  void insert(const Hash128& fp, std::span<const std::int64_t> raw,
              std::span<const std::int64_t> canon,
              std::span<const std::uint8_t> perm);

  // Observability / tests.
  std::size_t slot_count() const { return slots_.size(); }
  std::uint64_t epoch_resets() const { return epoch_resets_; }
  void clear();

 private:
  struct Slot {
    Hash128 fp;
    std::uint32_t offset = 0;     // into arena_: [raw | canon | perm words]
    std::uint32_t raw_len = 0;    // words in the raw encoding
    std::uint32_t canon_len = 0;  // words in the canonical encoding;
                                  // 0 = shared with raw (identity perm)
    std::uint32_t perm_len = 0;   // pids in perm (0 = identity)
    bool used = false;
  };

  std::vector<Slot> slots_;  // power-of-two, direct-mapped
  // Fixed-capacity payload store. Deliberately NOT a vector: the words are
  // left uninitialized (slot headers alone decide validity), so building a
  // multi-MiB cache costs an allocation, not a zero-fill — constructor cost
  // is on explore()'s critical path for short reduced runs.
  std::unique_ptr<std::int64_t[]> arena_;
  std::size_t arena_capacity_ = 0;  // words
  std::size_t arena_used_ = 0;
  std::uint64_t universe_salt_ = 0;
  std::uint64_t epoch_resets_ = 0;
};

// Hands out one CanonCache per worker index, shared across explorations.
// The per-worker caches are only ever touched by their worker, so no
// locking is needed beyond the lazy-creation path. Stick one instance into
// ExploreOptions::canon_cache_pool to keep caches warm across repeated
// explorations of the same universe (cross-checks, hierarchy-sweep cells).
class CanonCachePool {
 public:
  explicit CanonCachePool(std::size_t bytes_per_worker);

  // The cache for `worker` (created on first use), already universe-gated:
  // ensure_universe(salt) has been called on it.
  std::shared_ptr<CanonCache> worker_cache(std::size_t worker,
                                           std::uint64_t salt);

  std::size_t bytes_per_worker() const { return bytes_per_worker_; }

 private:
  std::mutex mu_;
  std::size_t bytes_per_worker_;
  std::vector<std::shared_ptr<CanonCache>> caches_;
};

// Per-worker reusable state for the canonical search and orbit counting:
// scratch buffers reused so steady-state canonicalization allocates
// nothing, an optional CanonCache, and tallies the explorer publishes as the
// `explore.canon.*` obs counters. NOT thread-safe: one per worker.
struct CanonScratch {
  // Tallies since construction (the explorer drains these into counters).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t prunes = 0;     // tied candidates that lost to an earlier one
  std::uint64_t fast_path = 0;  // identity results: no renamed encoding built

  // Attach / detach the orbit cache (null = search every time).
  void attach_cache(std::shared_ptr<CanonCache> cache) {
    cache_ = std::move(cache);
  }
  CanonCache* cache() const { return cache_.get(); }

 private:
  friend class Canonicalizer;
  std::shared_ptr<CanonCache> cache_;
  std::vector<std::int64_t> raw_;  // identity encoding of the input
  // Tie classes (Canonicalizer::tie_classes_): each nontrivial orbit's
  // members stably sorted by process block, laid out like
  // Canonicalizer::orbit_members_; per pid the positions [run_lo_, run_hi_)
  // of its tie class; the pids of the classes still tied, in group order.
  std::vector<int> sorted_;
  std::vector<std::size_t> run_lo_;
  std::vector<std::size_t> run_hi_;
  std::vector<int> tied_;
  std::vector<std::uint8_t> taken_;  // positions the enumeration holds
  std::vector<int> perm_;            // the candidate renaming
  std::vector<int> best_perm_;
  std::vector<std::uint8_t> perm_bytes_;
  // Renamed pid-storing objects as [size, words...] runs, and one object.
  std::vector<std::int64_t> objs_;
  std::vector<std::int64_t> best_objs_;
  std::vector<std::int64_t> obj_;
};

// Precomputed canonicalization engine for one (protocol, spec) pair. All
// methods are const and thread-safe (the parallel explorer calls them
// concurrently from worker threads) — the per-worker mutable state lives in
// CanonScratch.
class Canonicalizer {
 public:
  // Checks the declaration eagerly: spec size matches the process count and
  // initial locals agree within every orbit.
  Canonicalizer(std::shared_ptr<const Protocol> protocol, SymmetrySpec spec);

  const SymmetrySpec& spec() const { return spec_; }
  const std::shared_ptr<const Protocol>& protocol() const { return protocol_; }
  std::size_t group_size() const { return group_.size(); }

  // Fingerprint of the (protocol, spec) universe this canonicalizer was
  // built for: protocol name + process count + orbit partition + object
  // shapes. Used to gate CanonCache sharing across explorations.
  std::uint64_t universe_salt() const { return universe_salt_; }

  // Writes the canonical encoding of config's orbit — the lexicographic
  // minimum of encode() over every group element — into *out without
  // mutating config. If perm != nullptr it receives the permutation that
  // achieves the minimum (empty = identity; ties resolve to the first group
  // element, identical to the brute-force reference). `scratch` carries the
  // reusable buffers, the optional orbit cache, and the activity tallies;
  // pass nullptr for a cold, uncached call (tests, one-shot callers).
  void canonical_encode_into(const Config& config,
                             std::vector<std::int64_t>* out,
                             std::vector<std::uint8_t>* perm = nullptr,
                             CanonScratch* scratch = nullptr) const;

  // Replaces *config with its canonical orbit representative; perm (if
  // non-null) receives the permutation applied (empty = identity).
  void canonicalize(Config* config,
                    std::vector<std::uint8_t>* perm = nullptr,
                    CanonScratch* scratch = nullptr) const;

  // The reference implementation: applies every group element to a copy
  // and keeps the lexicographic minimum of the full encodings. Kept as the
  // test oracle the tie-class search must match bit-for-bit
  // (tests/sim/symmetry_test.cc). Not used by the explorer.
  void brute_force_canonical_encode_into(
      const Config& config, std::vector<std::int64_t>* out,
      std::vector<std::uint8_t>* perm = nullptr) const;

  // Number of distinct configurations in config's orbit (divides the group
  // order). Summed over quotient nodes this reproduces the full node count.
  // Computed as |G| / |stabilizer|; a stabilizing renaming keeps every
  // block in its tie class, so only those renamings are counted. Pass one
  // scratch across many calls to keep them allocation-free.
  std::uint64_t orbit_size(const Config& config,
                           CanonScratch* scratch = nullptr) const;

 private:
  // Fills scratch's tie classes for config: each nontrivial orbit's
  // members stably sorted by process block into s->sorted_, every pid's run
  // of equal blocks, and in s->tied_ the pids whose class the pid-storing
  // objects can tell apart, in group order. Every other class is untied
  // (a run of one per pid). Leaves s->perm_ the identity and returns the
  // product of the untied classes' size factorials.
  std::uint64_t tie_classes_(const Config& config, CanonScratch* s) const;
  // Calls visit() once per renaming that sends every tied pid p to
  // targets[k] for a distinct k in its run, in symmetry_group order (tied
  // pids in order, each trying its free positions ascending). s->perm_
  // holds the renaming; the caller presets the untied pids.
  template <typename Visit>
  void for_each_tied_perm_(CanonScratch* s, std::span<const int> targets,
                           std::size_t depth, Visit& visit) const;
  // Writes [size, words...] of every pid-storing object renamed by perm.
  void rename_objects_(const Config& config, std::span<const int> perm,
                       CanonScratch* s, std::vector<std::int64_t>* out) const;
  // Runs the tie-class search: true iff the identity achieves the minimum,
  // else s->best_perm_ holds the first group element that does.
  bool search_(const Config& config, CanonScratch* s) const;
  // Materializes encode(s->best_perm_ · config) into *out.
  void encode_permuted_(const Config& config, CanonScratch* s,
                        std::vector<std::int64_t>* out) const;

  std::shared_ptr<const Protocol> protocol_;
  SymmetrySpec spec_;
  std::vector<std::vector<int>> group_;
  // The members of every orbit with >= 2 pids, ascending within an orbit
  // and orbits in symmetry_group's order; orbit o spans
  // [orbit_begin_[o], orbit_begin_[o + 1]).
  std::vector<int> orbit_members_;
  std::vector<std::size_t> orbit_begin_;
  // Objects whose type rewrites pids (ObjectType::renames_pids); every
  // other object is renaming-invariant and never decides.
  std::vector<std::size_t> renaming_objects_;
  std::uint64_t universe_salt_ = 0;
};

}  // namespace lbsa::sim

#endif  // LBSA_SIM_SYMMETRY_H_
