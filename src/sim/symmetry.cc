#include "sim/symmetry.h"

#include <algorithm>
#include <string>
#include <utility>

#include "base/check.h"
#include "sim/config.h"
#include "sim/protocol.h"
#include "spec/object_type.h"

namespace lbsa::sim {
namespace {

// Generous backstop against accidental factorial blow-ups (S_8 = 40320 fits;
// nobody should canonicalize against a larger group element-by-element).
constexpr std::uint64_t kMaxGroupSize = 100'000;

std::uint64_t hash_string(std::uint64_t h, const std::string& s) {
  h = hash_combine(h, s.size());
  for (char c : s) h = hash_combine(h, static_cast<unsigned char>(c));
  return h;
}

}  // namespace

std::vector<std::vector<int>> orbit_buckets(const SymmetrySpec& spec) {
  std::vector<int> seen_ids;
  std::vector<std::vector<int>> buckets;
  for (int p = 0; p < spec.process_count(); ++p) {
    const int id = spec.orbit_of[static_cast<std::size_t>(p)];
    const auto it = std::find(seen_ids.begin(), seen_ids.end(), id);
    if (it == seen_ids.end()) {
      seen_ids.push_back(id);
      buckets.push_back({p});
    } else {
      buckets[static_cast<std::size_t>(it - seen_ids.begin())].push_back(p);
    }
  }
  return buckets;
}

SymmetrySpec SymmetrySpec::none(int n) {
  SymmetrySpec spec;
  spec.orbit_of.resize(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) spec.orbit_of[static_cast<std::size_t>(p)] = p;
  return spec;
}

SymmetrySpec SymmetrySpec::full(int n) {
  SymmetrySpec spec;
  spec.orbit_of.assign(static_cast<std::size_t>(n), 0);
  return spec;
}

SymmetrySpec SymmetrySpec::by_value(const std::vector<std::int64_t>& keys,
                                    const std::vector<int>& fixed) {
  const int n = static_cast<int>(keys.size());
  SymmetrySpec spec;
  spec.orbit_of.assign(static_cast<std::size_t>(n), -1);
  std::vector<bool> is_fixed(static_cast<std::size_t>(n), false);
  for (int pid : fixed) {
    LBSA_CHECK(pid >= 0 && pid < n);
    is_fixed[static_cast<std::size_t>(pid)] = true;
  }
  int next_orbit = 0;
  for (int p = 0; p < n; ++p) {
    if (spec.orbit_of[static_cast<std::size_t>(p)] != -1) continue;
    spec.orbit_of[static_cast<std::size_t>(p)] = next_orbit;
    if (!is_fixed[static_cast<std::size_t>(p)]) {
      for (int q = p + 1; q < n; ++q) {
        if (spec.orbit_of[static_cast<std::size_t>(q)] == -1 &&
            !is_fixed[static_cast<std::size_t>(q)] &&
            keys[static_cast<std::size_t>(q)] ==
                keys[static_cast<std::size_t>(p)]) {
          spec.orbit_of[static_cast<std::size_t>(q)] = next_orbit;
        }
      }
    }
    ++next_orbit;
  }
  return spec;
}

bool SymmetrySpec::trivial() const {
  for (int p = 0; p < process_count(); ++p) {
    if (!is_singleton(p)) return false;
  }
  return true;
}

bool SymmetrySpec::is_singleton(int pid) const {
  const int id = orbit_of[static_cast<std::size_t>(pid)];
  for (int q = 0; q < process_count(); ++q) {
    if (q != pid && orbit_of[static_cast<std::size_t>(q)] == id) return false;
  }
  return true;
}

std::vector<std::vector<int>> symmetry_group(const SymmetrySpec& spec) {
  const int n = spec.process_count();
  const std::vector<std::vector<int>> buckets = orbit_buckets(spec);

  // Non-singleton orbit sizes, for the too-large diagnostic: the group
  // order is the product of their factorials, so the message names exactly
  // the numbers whose factorials blew the budget.
  std::vector<std::size_t> orbit_sizes;
  for (const std::vector<int>& bucket : buckets) {
    if (bucket.size() >= 2) orbit_sizes.push_back(bucket.size());
  }
  auto too_large_message = [&orbit_sizes]() {
    std::string msg = "symmetry group too large to enumerate: orbit sizes {";
    for (std::size_t i = 0; i < orbit_sizes.size(); ++i) {
      if (i > 0) msg += ", ";
      msg += std::to_string(orbit_sizes[i]);
    }
    msg += "} give more than " + std::to_string(kMaxGroupSize) +
           " permutations (the group order is the product of the "
           "orbit-size factorials); shrink the largest orbit by declaring "
           "distinct keys or listing more pids as fixed in "
           "SymmetrySpec::by_value";
    return msg;
  };

  // For each non-singleton orbit, enumerate all arrangements of its members
  // (std::next_permutation from the sorted arrangement, so the identity
  // arrangement comes first and the order is deterministic).
  std::vector<std::vector<int>> members;
  std::vector<std::vector<std::vector<int>>> arrangements;
  std::uint64_t total = 1;
  for (const std::vector<int>& bucket : buckets) {
    if (bucket.size() < 2) continue;
    std::vector<std::vector<int>> arrs;
    std::vector<int> arr = bucket;
    do {
      arrs.push_back(arr);
      if (total * arrs.size() > kMaxGroupSize) {
        LBSA_CHECK_MSG(false, too_large_message().c_str());
      }
    } while (std::next_permutation(arr.begin(), arr.end()));
    total *= arrs.size();
    members.push_back(bucket);
    arrangements.push_back(std::move(arrs));
  }

  // Cartesian product over orbits (last orbit cycles fastest). With every
  // odometer digit at its first position the result is the identity.
  std::vector<std::vector<int>> group;
  group.reserve(static_cast<std::size_t>(total));
  std::vector<std::size_t> odometer(members.size(), 0);
  for (;;) {
    std::vector<int> perm(static_cast<std::size_t>(n));
    for (int p = 0; p < n; ++p) perm[static_cast<std::size_t>(p)] = p;
    for (std::size_t oi = 0; oi < members.size(); ++oi) {
      const std::vector<int>& arr = arrangements[oi][odometer[oi]];
      for (std::size_t j = 0; j < arr.size(); ++j) {
        perm[static_cast<std::size_t>(members[oi][j])] = arr[j];
      }
    }
    group.push_back(std::move(perm));
    std::size_t k = members.size();
    for (;;) {
      if (k == 0) return group;
      --k;
      if (++odometer[k] < arrangements[k].size()) break;
      odometer[k] = 0;
      if (k == 0) return group;
    }
  }
}

void apply_pid_permutation(const Protocol& protocol, std::span<const int> perm,
                           Config* config) {
  const std::size_t n = config->procs.size();
  LBSA_CHECK(perm.size() == n);
  std::vector<ProcessState> renamed(n);
  for (std::size_t p = 0; p < n; ++p) {
    renamed[static_cast<std::size_t>(perm[p])] = std::move(config->procs[p]);
  }
  config->procs = std::move(renamed);
  const auto& types = protocol.objects();
  for (std::size_t i = 0; i < config->objects.size(); ++i) {
    types[i]->rename_pids(perm, &config->objects[i]);
  }
}

// ---------------------------------------------------------------------------
// CanonCache

CanonCache::CanonCache(std::size_t bytes) {
  constexpr std::size_t kMinBytes = std::size_t{1} << 12;  // 4 KiB floor
  if (bytes < kMinBytes) bytes = kMinBytes;
  // Slot headers take a small slice of the budget (~1/16th): zeroing them
  // is the entire constructor cost — which sits on explore()'s critical
  // path — and entries are hundreds of words each, so a few thousand slots
  // already outnumber what the arena can hold. The rest is payload arena.
  // The slot count rounds to a power of two so fp.lo masks straight in.
  std::size_t slots = 64;
  while (slots * 2 * sizeof(Slot) * 16 <= bytes) slots *= 2;
  slots_.resize(slots);
  std::size_t arena_words =
      (bytes - slots * sizeof(Slot)) / sizeof(std::int64_t);
  if (arena_words < 1024) arena_words = 1024;
  arena_.reset(new std::int64_t[arena_words]);  // uninitialized on purpose
  arena_capacity_ = arena_words;
}

void CanonCache::clear() {
  for (Slot& s : slots_) s.used = false;
  arena_used_ = 0;
}

void CanonCache::ensure_universe(std::uint64_t salt) {
  if (salt == universe_salt_) return;
  universe_salt_ = salt;
  clear();
}

bool CanonCache::lookup(const Hash128& fp, std::span<const std::int64_t> raw,
                        std::vector<std::int64_t>* out,
                        std::vector<std::uint8_t>* perm) const {
  const Slot& s = slots_[fp.lo & (slots_.size() - 1)];
  if (!s.used || !(s.fp == fp)) return false;
  if (s.raw_len != raw.size()) return false;
  const std::int64_t* base = arena_.get() + s.offset;
  // Fingerprint equality is probabilistic; the full raw-key verify makes
  // the hit exact (same policy as the interning table, base/hashing.h).
  if (!std::equal(raw.begin(), raw.end(), base)) return false;
  // canon_len == 0 marks a shared entry: the raw words double as the
  // canonical encoding (identity perm), stored once.
  const std::int64_t* canon = base + s.raw_len;
  if (s.canon_len == 0) {
    out->assign(base, base + s.raw_len);
  } else {
    out->assign(canon, canon + s.canon_len);
  }
  if (perm != nullptr) {
    perm->clear();
    const std::int64_t* pw = canon + s.canon_len;
    for (std::uint32_t i = 0; i < s.perm_len; ++i) {
      perm->push_back(static_cast<std::uint8_t>(pw[i]));
    }
  }
  return true;
}

void CanonCache::insert(const Hash128& fp, std::span<const std::int64_t> raw,
                        std::span<const std::int64_t> canon,
                        std::span<const std::uint8_t> perm) {
  // Already-canonical entries (identity perm, canon == raw word-for-word)
  // are the common case on reduced frontiers; store the words once and mark
  // them shared with canon_len == 0. The equality check is a cheap memcmp
  // next to the 2x copy + arena space it saves.
  const bool shared = perm.empty() && canon.size() == raw.size() &&
                      std::equal(raw.begin(), raw.end(), canon.begin());
  const std::size_t need =
      raw.size() + (shared ? 0 : canon.size()) + perm.size();
  if (need > arena_capacity_) return;  // pathological config; skip caching
  if (arena_used_ + need > arena_capacity_) {
    // Epoch reset: dropping the whole (lossy) cache is cheaper and simpler
    // than tracking per-slot liveness, and the hot entries repopulate from
    // the very next frontier level.
    clear();
    ++epoch_resets_;
  }
  Slot& s = slots_[fp.lo & (slots_.size() - 1)];
  std::int64_t* base = arena_.get() + arena_used_;
  std::copy(raw.begin(), raw.end(), base);
  if (!shared) std::copy(canon.begin(), canon.end(), base + raw.size());
  std::int64_t* pw = base + raw.size() + (shared ? 0 : canon.size());
  for (std::uint8_t p : perm) *pw++ = static_cast<std::int64_t>(p);
  s.fp = fp;
  s.offset = static_cast<std::uint32_t>(arena_used_);
  s.raw_len = static_cast<std::uint32_t>(raw.size());
  s.canon_len = shared ? 0 : static_cast<std::uint32_t>(canon.size());
  s.perm_len = static_cast<std::uint32_t>(perm.size());
  s.used = true;
  arena_used_ += need;
}

CanonCachePool::CanonCachePool(std::size_t bytes_per_worker)
    : bytes_per_worker_(bytes_per_worker) {}

std::shared_ptr<CanonCache> CanonCachePool::worker_cache(std::size_t worker,
                                                         std::uint64_t salt) {
  std::shared_ptr<CanonCache> cache;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (caches_.size() <= worker) caches_.resize(worker + 1);
    if (caches_[worker] == nullptr) {
      caches_[worker] = std::make_shared<CanonCache>(bytes_per_worker_);
    }
    cache = caches_[worker];
  }
  cache->ensure_universe(salt);
  return cache;
}

// ---------------------------------------------------------------------------
// Canonicalizer

Canonicalizer::Canonicalizer(std::shared_ptr<const Protocol> protocol,
                             SymmetrySpec spec)
    : protocol_(std::move(protocol)), spec_(std::move(spec)) {
  LBSA_CHECK(protocol_ != nullptr);
  LBSA_CHECK_MSG(spec_.process_count() == protocol_->process_count(),
                 "SymmetrySpec size != protocol process count");
  group_ = symmetry_group(spec_);
  const int n = spec_.process_count();
  orbit_begin_.push_back(0);
  for (const std::vector<int>& bucket : orbit_buckets(spec_)) {
    if (bucket.size() < 2) continue;
    orbit_members_.insert(orbit_members_.end(), bucket.begin(), bucket.end());
    orbit_begin_.push_back(orbit_members_.size());
  }
  const auto& types = protocol_->objects();
  for (std::size_t i = 0; i < types.size(); ++i) {
    if (types[i]->renames_pids()) renaming_objects_.push_back(i);
  }
  // Universe fingerprint for CanonCache sharing: protocol name, process
  // count, orbit partition, and object shapes (type names + initial
  // states). Two canonicalizers with equal salts canonicalize identically
  // for every config either could meet, so a cache keyed on it never
  // serves a stale entry across hierarchy-sweep cells.
  std::uint64_t h = hash_string(0x5ca1ab1eULL, protocol_->name());
  h = hash_combine(h, static_cast<std::uint64_t>(n));
  for (int id : spec_.orbit_of) {
    h = hash_combine(h, static_cast<std::uint64_t>(id));
  }
  h = hash_combine(h, types.size());
  for (const auto& type : types) {
    h = hash_string(h, type->name());
    const std::vector<std::int64_t> init = type->initial_state();
    h = hash_combine(h, init.size());
    for (std::int64_t w : init) h = hash_combine(h, static_cast<std::uint64_t>(w));
  }
  universe_salt_ = h;
  // Soundness gate: the whole group must fix the initial configuration
  // (otherwise "renamed runs" would be runs of a different instance). The
  // group is generated by transpositions of adjacent orbit members, so
  // checking those suffices — and catches unequal initial locals eagerly.
  const Config initial = initial_config(*protocol_);
  for (int p = 0; p < n; ++p) {
    for (int q = p + 1; q < n; ++q) {
      if (spec_.orbit_of[static_cast<std::size_t>(p)] !=
          spec_.orbit_of[static_cast<std::size_t>(q)]) {
        continue;
      }
      std::vector<int> transposition(static_cast<std::size_t>(n));
      for (int r = 0; r < n; ++r) {
        transposition[static_cast<std::size_t>(r)] = r;
      }
      std::swap(transposition[static_cast<std::size_t>(p)],
                transposition[static_cast<std::size_t>(q)]);
      Config swapped = initial;
      apply_pid_permutation(*protocol_, transposition, &swapped);
      LBSA_CHECK_MSG(swapped == initial,
                     "SymmetrySpec groups processes with distinct initial "
                     "configurations (unequal inputs?)");
    }
  }
}

namespace {

// Three-way compare of two per-process encoding blocks in encoding order
// (status, decision, pc, nlocals, locals...). The length word precedes the
// locals, so the first differing block decides between two encodings.
int proc_block_cmp(const ProcessState& a, const ProcessState& b) {
  const std::int64_t sa = static_cast<std::int64_t>(a.status);
  const std::int64_t sb = static_cast<std::int64_t>(b.status);
  if (sa != sb) return sa < sb ? -1 : 1;
  if (a.decision != b.decision) return a.decision < b.decision ? -1 : 1;
  if (a.pc != b.pc) return a.pc < b.pc ? -1 : 1;
  if (a.locals.size() != b.locals.size()) {
    return a.locals.size() < b.locals.size() ? -1 : 1;
  }
  const auto mismatch =
      std::mismatch(a.locals.begin(), a.locals.end(), b.locals.begin());
  if (mismatch.first == a.locals.end()) return 0;
  return *mismatch.first < *mismatch.second ? -1 : 1;
}

bool is_identity(std::span<const int> perm) {
  for (std::size_t p = 0; p < perm.size(); ++p) {
    if (perm[p] != static_cast<int>(p)) return false;
  }
  return true;
}

}  // namespace

std::uint64_t Canonicalizer::tie_classes_(const Config& config,
                                          CanonScratch* s) const {
  const std::size_t n = config.procs.size();
  const auto block = [&config](int pid) -> const ProcessState& {
    return config.procs[static_cast<std::size_t>(pid)];
  };
  std::vector<int>& sorted = s->sorted_;
  sorted = orbit_members_;
  s->run_lo_.resize(n);
  s->run_hi_.resize(n);
  s->perm_.resize(n);
  for (std::size_t p = 0; p < n; ++p) s->perm_[p] = static_cast<int>(p);
  // Whether renaming a <-> b changes the pid-storing objects. The first
  // call renders the unrenamed objects into s->best_objs_ for reference.
  bool have_reference = false;
  const auto swap_visible = [&](int a, int b) {
    if (!have_reference) {
      rename_objects_(config, s->perm_, s, &s->best_objs_);
      have_reference = true;
    }
    std::vector<int>& perm = s->perm_;
    std::swap(perm[static_cast<std::size_t>(a)],
              perm[static_cast<std::size_t>(b)]);
    rename_objects_(config, perm, s, &s->objs_);
    std::swap(perm[static_cast<std::size_t>(a)],
              perm[static_cast<std::size_t>(b)]);
    return s->objs_ != s->best_objs_;
  };
  std::uint64_t untied_share = 1;
  for (std::size_t o = 0; o + 1 < orbit_begin_.size(); ++o) {
    const std::size_t begin = orbit_begin_[o];
    const std::size_t end = orbit_begin_[o + 1];
    // Insertion sort: stable, allocation-free, and orbits are small.
    for (std::size_t k = begin + 1; k < end; ++k) {
      const int pid = sorted[k];
      std::size_t j = k;
      for (; j > begin && proc_block_cmp(block(sorted[j - 1]), block(pid)) > 0;
           --j) {
        sorted[j] = sorted[j - 1];
      }
      sorted[j] = pid;
    }
    for (std::size_t lo = begin; lo < end;) {
      std::size_t hi = lo + 1;
      while (hi < end &&
             proc_block_cmp(block(sorted[lo]), block(sorted[hi])) == 0) {
        ++hi;
      }
      // A class whose renamings all leave the pid-storing objects as they
      // are cannot tell its candidates apart, and the first of them in
      // group order keeps its pids ascending: untie it. Transpositions of
      // adjacent members generate its symmetric group, so checking those
      // suffices.
      bool invisible = true;
      if (!renaming_objects_.empty()) {
        for (std::size_t k = lo; invisible && k + 1 < hi; ++k) {
          invisible = !swap_visible(sorted[k], sorted[k + 1]);
        }
      }
      for (std::size_t k = lo; k < hi; ++k) {
        const auto pid = static_cast<std::size_t>(sorted[k]);
        s->run_lo_[pid] = invisible ? k : lo;
        s->run_hi_[pid] = invisible ? k + 1 : hi;
        if (invisible) untied_share *= k - lo + 1;
      }
      lo = hi;
    }
  }
  s->tied_.clear();
  for (int pid : orbit_members_) {
    const auto p = static_cast<std::size_t>(pid);
    if (s->run_hi_[p] - s->run_lo_[p] > 1) s->tied_.push_back(pid);
  }
  return untied_share;
}

template <typename Visit>
void Canonicalizer::for_each_tied_perm_(CanonScratch* s,
                                        std::span<const int> targets,
                                        std::size_t depth,
                                        Visit& visit) const {
  if (depth == s->tied_.size()) {
    visit();
    return;
  }
  // symmetry_group lists its elements in lexicographic order of
  // (perm[m] for m in orbit_members_), so assigning the tied pids in that
  // order, smallest free position first, walks the coset in group order.
  const auto pid = static_cast<std::size_t>(s->tied_[depth]);
  for (std::size_t k = s->run_lo_[pid]; k < s->run_hi_[pid]; ++k) {
    if (s->taken_[k] != 0) continue;
    s->taken_[k] = 1;
    s->perm_[pid] = targets[k];
    for_each_tied_perm_(s, targets, depth + 1, visit);
    s->taken_[k] = 0;
  }
}

void Canonicalizer::rename_objects_(const Config& config,
                                    std::span<const int> perm,
                                    CanonScratch* s,
                                    std::vector<std::int64_t>* out) const {
  const auto& types = protocol_->objects();
  out->clear();
  for (std::size_t i : renaming_objects_) {
    s->obj_ = config.objects[i];
    types[i]->rename_pids(perm, &s->obj_);
    out->push_back(static_cast<std::int64_t>(s->obj_.size()));
    out->insert(out->end(), s->obj_.begin(), s->obj_.end());
  }
}

bool Canonicalizer::search_(const Config& config, CanonScratch* s) const {
  tie_classes_(config, s);
  // The first candidate sends each orbit's k-th smallest block to the
  // orbit's k-th slot, equal blocks in pid order: the stable sort. It is the
  // answer unless a tie is left to the pid-storing objects.
  for (std::size_t k = 0; k < orbit_members_.size(); ++k) {
    s->perm_[static_cast<std::size_t>(s->sorted_[k])] = orbit_members_[k];
  }
  if (s->tied_.empty()) {
    s->best_perm_ = s->perm_;
    return is_identity(s->best_perm_);
  }
  // Every candidate encodes the same process section; the renamed
  // pid-storing objects decide, and the first strict minimum in group
  // order wins, as in the brute-force scan.
  s->taken_.assign(orbit_members_.size(), 0);
  bool first = true;
  auto visit = [&] {
    if (first) {
      first = false;
      s->best_perm_ = s->perm_;
      rename_objects_(config, s->perm_, s, &s->best_objs_);
      return;
    }
    rename_objects_(config, s->perm_, s, &s->objs_);
    if (s->objs_ < s->best_objs_) {
      std::swap(s->objs_, s->best_objs_);
      s->best_perm_ = s->perm_;
    } else {
      ++s->prunes;
    }
  };
  for_each_tied_perm_(s, orbit_members_, 0, visit);
  return is_identity(s->best_perm_);
}

void Canonicalizer::encode_permuted_(const Config& config, CanonScratch* s,
                                     std::vector<std::int64_t>* out) const {
  // s->perm_ becomes the inverse: slot -> the pid whose block lands there.
  const std::size_t n = config.procs.size();
  for (std::size_t p = 0; p < n; ++p) {
    s->perm_[static_cast<std::size_t>(s->best_perm_[p])] = static_cast<int>(p);
  }
  out->resize(config.encoded_size());
  std::int64_t* w = out->data();
  *w++ = static_cast<std::int64_t>(n);
  for (std::size_t slot = 0; slot < n; ++slot) {
    w = config.procs[static_cast<std::size_t>(s->perm_[slot])].encode_to(w);
  }
  *w++ = static_cast<std::int64_t>(config.objects.size());
  const auto& types = protocol_->objects();
  for (std::size_t i = 0; i < config.objects.size(); ++i) {
    std::span<const std::int64_t> state = config.objects[i];
    if (types[i]->renames_pids()) {
      s->obj_.assign(state.begin(), state.end());
      types[i]->rename_pids(s->best_perm_, &s->obj_);
      state = s->obj_;
    }
    *w++ = static_cast<std::int64_t>(state.size());
    w = std::copy(state.begin(), state.end(), w);
  }
}

void Canonicalizer::canonical_encode_into(const Config& config,
                                          std::vector<std::int64_t>* out,
                                          std::vector<std::uint8_t>* perm,
                                          CanonScratch* scratch) const {
  if (group_.size() <= 1) {
    config.encode_into(out);
    if (perm != nullptr) perm->clear();
    return;
  }
  if (scratch == nullptr) {
    CanonScratch local;
    canonical_encode_into(config, out, perm, &local);
    return;
  }
  CanonScratch* s = scratch;
  CanonCache* cache = s->cache();
  Hash128 fp;
  if (cache != nullptr) {
    config.encode_into(&s->raw_);
    fp = hash_words_128(s->raw_);
    if (cache->lookup(fp, s->raw_, out, perm)) {
      ++s->cache_hits;
      return;
    }
    ++s->cache_misses;
  }
  std::vector<std::uint8_t>* perm_out =
      perm != nullptr ? perm : &s->perm_bytes_;
  perm_out->clear();
  if (search_(config, s)) {
    ++s->fast_path;
    if (cache != nullptr) {
      *out = s->raw_;
    } else {
      config.encode_into(out);
    }
  } else {
    encode_permuted_(config, s, out);
    perm_out->assign(s->best_perm_.begin(), s->best_perm_.end());
  }
  if (cache != nullptr) cache->insert(fp, s->raw_, *out, *perm_out);
}

void Canonicalizer::canonicalize(Config* config,
                                 std::vector<std::uint8_t>* perm,
                                 CanonScratch* scratch) const {
  std::vector<std::int64_t> best;
  std::vector<std::uint8_t> best_perm;
  canonical_encode_into(*config, &best, &best_perm, scratch);
  if (!best_perm.empty()) {
    std::vector<int> as_int(best_perm.begin(), best_perm.end());
    apply_pid_permutation(*protocol_, as_int, config);
  }
  if (perm != nullptr) *perm = std::move(best_perm);
}

void Canonicalizer::brute_force_canonical_encode_into(
    const Config& config, std::vector<std::int64_t>* out,
    std::vector<std::uint8_t>* perm) const {
  config.encode_into(out);
  if (perm != nullptr) perm->clear();
  if (group_.size() <= 1) return;
  std::vector<std::int64_t> candidate;
  Config scratch;
  for (std::size_t g = 1; g < group_.size(); ++g) {
    scratch = config;
    apply_pid_permutation(*protocol_, group_[g], &scratch);
    scratch.encode_into(&candidate);
    // Same protocol, same shape: encodings are equal length, so plain
    // lexicographic comparison picks the canonical representative.
    if (candidate < *out) {
      std::swap(candidate, *out);
      if (perm != nullptr) perm->assign(group_[g].begin(), group_[g].end());
    }
  }
}

std::uint64_t Canonicalizer::orbit_size(const Config& config,
                                        CanonScratch* scratch) const {
  if (group_.size() <= 1) return 1;
  if (scratch == nullptr) {
    CanonScratch local;
    return orbit_size(config, &local);
  }
  CanonScratch* s = scratch;
  // Orbit–stabilizer: |orbit| = |G| / |Stab|. A renaming that fixes config
  // sends every pid to an equal block, so Stab lies inside the product of
  // the tie classes' symmetric groups. The classes the objects cannot see
  // contribute all of theirs; the renamings of the others are counted.
  std::uint64_t stabilizer = tie_classes_(config, s);
  if (s->tied_.empty()) return group_.size() / stabilizer;
  // s->perm_ is the identity here; targets = sorted_ keeps each pid in its
  // class.
  rename_objects_(config, s->perm_, s, &s->best_objs_);
  s->taken_.assign(orbit_members_.size(), 0);
  std::uint64_t fixing = 0;
  auto visit = [&] {
    rename_objects_(config, s->perm_, s, &s->objs_);
    if (s->objs_ == s->best_objs_) ++fixing;
  };
  for_each_tied_perm_(s, s->sorted_, 0, visit);
  return group_.size() / (stabilizer * fixing);
}

}  // namespace lbsa::sim
