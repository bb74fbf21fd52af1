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
//   2. next_action / on_response commute with renaming: renaming the pid
//      and rewriting pid-valued words (Protocol::rename_locals,
//      spec::ObjectType::rename_pids) maps steps to steps, outcome lists
//      elementwise in order — exercised end to end by the cross-validation
//      suite in tests/modelcheck/reduction_test.cc.
//
// The canonical search itself is branch-and-bound (docs/checking.md,
// "State-space reduction"): instead of materializing |G| full encodings per
// configuration, each candidate permutation's encoding is compared
// word-by-word against the best-so-far and abandoned at the first word that
// exceeds it. An optional per-worker CanonCache short-circuits repeat
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

// All pid permutations the spec generates (every product of intra-orbit
// permutations), in a deterministic order with the identity first.
// perm[old_pid] = new_pid. LBSA_CHECKs against absurdly large groups, with
// a message naming the offending orbit sizes.
std::vector<std::vector<int>> symmetry_group(const SymmetrySpec& spec);

// Renames processes in place: process p's automaton state moves to slot
// perm[p], pid-valued words inside locals are rewritten via
// Protocol::rename_locals, and pid-valued words inside each object state via
// spec::ObjectType::rename_pids.
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

// Per-worker reusable state for the canonical search: scratch buffers the
// hot loop reuses so steady-state canonicalization allocates nothing, an
// optional CanonCache, and tallies the engines publish as the
// `explore.canon.*` obs counters. NOT thread-safe: one per worker.
struct CanonScratch {
  // Tallies since construction (the engines drain these into obs counters).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t prunes = 0;     // candidate perms abandoned mid-encoding
  std::uint64_t fast_path = 0;  // configs proven identity-minimal cheaply

  // Attach / detach the orbit cache (null = search every time).
  void attach_cache(std::shared_ptr<CanonCache> cache) {
    cache_ = std::move(cache);
  }
  CanonCache* cache() const { return cache_.get(); }

 private:
  friend class Canonicalizer;
  std::shared_ptr<CanonCache> cache_;
  std::vector<std::int64_t> raw_;          // identity encoding of the input
  std::vector<std::int64_t> loc_scratch_;  // renamed locals buffer
  std::vector<std::int64_t> obj_scratch_;  // renamed object-state buffer
  std::vector<std::int8_t> pair_cmp_;      // memoized proc-block compares
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

  // The pre-rewrite reference implementation: applies every group element
  // to a copy and keeps the lexicographic minimum of the full encodings.
  // Kept as the test oracle the branch-and-bound path must match
  // bit-for-bit (tests/sim/symmetry_test.cc). Not used by the explorer.
  void brute_force_canonical_encode_into(
      const Config& config, std::vector<std::int64_t>* out,
      std::vector<std::uint8_t>* perm = nullptr) const;

  // Number of distinct configurations in config's orbit (divides the group
  // order). Summed over quotient nodes this reproduces the full node count.
  // Computed as |G| / |stabilizer| with early-exit equality checks, so it
  // shares the incremental comparator with the canonical search.
  std::uint64_t orbit_size(const Config& config) const;

 private:
  // Three-way comparison of encode(group_[g] · config) against `best`,
  // built incrementally and abandoned at the first deciding word. When the
  // caller knows `best` is still the identity encoding, renaming-invariant
  // segments (slots group_[g] fixes, pid-free objects) compare equal by
  // construction and are skipped outright.
  int compare_permuted_(const Config& config, std::size_t g,
                        std::span<const std::int64_t> best,
                        bool best_is_identity, CanonScratch* scratch) const;
  // Fast-lane variant for the common state of the search — `best` is still
  // the identity encoding and locals are pid-free. The verdict for group
  // element g then follows from block-level facts alone: the first moved
  // slot whose (source, destination) process blocks differ decides, and a
  // full process-part tie falls through to renaming-object words. The
  // block compares are memoized in scratch->pair_cmp_ across all |G|-1
  // rivals of one canonicalization. Exactly equivalent to
  // compare_permuted_(config, g, identity, true, scratch).
  int compare_permuted_identity_(const Config& config, std::size_t g,
                                 CanonScratch* scratch) const;
  // Materializes encode(group_[g] · config) into *out (only called for the
  // rare candidates that beat the best-so-far).
  void encode_permuted_(const Config& config, std::size_t g,
                        std::vector<std::int64_t>* out,
                        CanonScratch* scratch) const;
  // True iff config is provably identity-minimal without touching the
  // group: within every orbit the per-process encodings are strictly
  // increasing by slot. Only sound when locals are pid-free.
  bool identity_minimal_(const Config& config) const;

  std::shared_ptr<const Protocol> protocol_;
  SymmetrySpec spec_;
  std::vector<std::vector<int>> group_;
  // group_inv_[g][slot] = the original pid that lands in `slot` under
  // group_[g] — the order the permuted encoding walks processes in.
  std::vector<std::vector<int>> group_inv_;
  // Orbits with >= 2 members, as ascending pid lists (fast-path input).
  std::vector<std::vector<int>> nontrivial_orbits_;
  // Per-object: does the type rewrite pids (ObjectType::renames_pids)?
  // Pid-free objects compare against their unrenamed state, zero copies.
  std::vector<bool> object_renames_pids_;
  bool locals_pid_free_ = true;
  std::uint64_t universe_salt_ = 0;
};

}  // namespace lbsa::sim

#endif  // LBSA_SIM_SYMMETRY_H_
