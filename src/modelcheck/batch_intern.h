// Batched concurrent interning over an open-addressing flat table with a
// CAS reservation-flag slot protocol — the lock-free successor of an
// earlier mutex-per-shard table, built for the explorer hot path where
// per-node mutex acquisition dominated parallel runs.
//
// Design (after the BCL ChecksumHashMap free/reserved/ready protocol and
// the parabix arena-allocated trie):
//   * 64 shards, each an open-addressing table of 16-byte slots. A 2-word
//     hash routes: the low word picks the shard and the probe start, the
//     high word is the stored fingerprint. Locals are dense per shard, so
//     the id *set* for a key set is fixed by routing alone, whatever the
//     insertion order — which the concurrent hammer test checks.
//   * A slot is two atomics: `fp` (0 = free, else the never-zero
//     fingerprint) and `id` (kEmpty = reserved-but-unpublished, else the
//     assigned id). Insertion CASes fp 0 -> fingerprint to *reserve* the
//     slot, writes the entry (key pointer, payload), then publishes by
//     storing id with release order. A prober that hits a matching
//     fingerprint spins for the id (publication is a handful of stores,
//     never blocked on a lock) and then verifies the full key — fingerprint
//     collisions are verified, never trusted.
//   * Keys are NOT copied into a shard-owned pool under a lock: callers
//     pass a per-worker WordArena, and only the *winning* inserter copies
//     its key from scratch storage into that arena. Losers touch no key
//     memory at all. The arenas must outlive the table's last use.
//   * Entries (key pointer/length, hash, payload) live in per-shard
//     segmented logs indexed by local id — segments are fixed-size and
//     never move, so payload()/key() are simple loads once an id is
//     published.
//   * Growth: callers probe in *batches* (intern_batch), holding the
//     shard's grow-lock in shared mode for the whole batch — one lock
//     acquisition per shard-batch, not per key. When the batch would push
//     the shard past its load factor, the caller upgrades to exclusive,
//     doubles the slot array, and rebuilds it from the entry log (entries
//     carry their hash, so no key is rehashed). Probing itself never takes
//     the lock per key.
//
// Ids are (local << 6) | shard; the explorer's canonical renumbering pass
// turns them into the serial BFS numbering.
//
// Thread-safety contract: intern_batch()/intern() may run concurrently
// from any number of threads (each with its OWN arena and tally).
// payload_mut() may be called only by the thread whose intern inserted the
// id, until quiescence. payload()/key()/id_bound()/stats() are
// quiescent-only: establish happens-before (level barrier / thread join)
// between the last intern and the first read.
#ifndef LBSA_MODELCHECK_BATCH_INTERN_H_
#define LBSA_MODELCHECK_BATCH_INTERN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <thread>
#include <vector>

#include "base/arena.h"
#include "base/check.h"
#include "base/hashing.h"

namespace lbsa::modelcheck {

template <typename Payload>
class BatchInternTable {
 public:
  static constexpr int kShardBits = 6;
  static constexpr std::uint32_t kShardCount = 1u << kShardBits;
  static constexpr std::uint32_t kEmpty = 0xffffffffu;

  // One key to intern. The caller fills key/hash (key typically points into
  // a per-batch scratch arena) and payload; intern_batch fills id/inserted.
  // On insertion the payload is MOVED into the table and the key words are
  // copied into the caller's persistent arena; on a duplicate both are left
  // untouched (the factory-never-runs guarantee of the mutex table).
  struct Candidate {
    std::span<const std::int64_t> key;
    Hash128 hash;
    Payload payload;
    std::uint32_t id = kEmpty;
    bool inserted = false;
    // Global insertion sequence number (1-based), set iff inserted. This is
    // the node-budget comparator: the serial engine expands exactly the
    // first max_nodes interned nodes, and seq > max_nodes reproduces that
    // cut under concurrency without a racy size() re-read.
    std::uint64_t seq = 0;
  };

  // Per-worker probe statistics, accumulated locally by the calling thread
  // and merged at join — exact totals with zero contention.
  struct Tally {
    std::uint64_t probes = 0;
    std::uint64_t cas_retries = 0;
    std::uint64_t inserts = 0;

    Tally& operator+=(const Tally& o) {
      probes += o.probes;
      cas_retries += o.cas_retries;
      inserts += o.inserts;
      return *this;
    }
  };

  struct Result {
    std::uint32_t id = 0;
    bool inserted = false;
  };

  // initial_slots_per_shard must be a power of two; tests shrink it to
  // force growth cycles.
  explicit BatchInternTable(std::size_t initial_slots_per_shard = 256) {
    LBSA_CHECK((initial_slots_per_shard &
                (initial_slots_per_shard - 1)) == 0 &&
               initial_slots_per_shard > 0);
    for (Shard& shard : shards_) {
      shard.slots = std::make_unique<Slot[]>(initial_slots_per_shard);
      shard.slot_count = initial_slots_per_shard;
      // Heap-allocated: keeps the Shard (and any BatchInternTable local)
      // small enough for the stack regardless of kMaxSegments.
      shard.segments =
          std::make_unique<std::atomic<Entry*>[]>(kMaxSegments);
    }
  }
  BatchInternTable(const BatchInternTable&) = delete;
  BatchInternTable& operator=(const BatchInternTable&) = delete;

  static std::uint32_t shard_of(Hash128 h) {
    return static_cast<std::uint32_t>(h.lo) & (kShardCount - 1);
  }

  // Interns every candidate, all of which must route to `shard_idx`
  // (shard_of(c->hash)). One shared-lock acquisition for the whole batch;
  // exclusive only when the shard must grow.
  void intern_batch(std::uint32_t shard_idx,
                    std::span<Candidate* const> candidates,
                    WordArena* key_arena, Tally* tally) {
    Shard& shard = shards_[shard_idx];
    const std::uint64_t batch = candidates.size();
    std::shared_lock<std::shared_mutex> lock(shard.grow_mu);
    // Register our prospective inserts BEFORE the capacity gate, so
    // concurrent batches cannot jointly overfill the shard: the gate sees
    // every in-flight batch's worst case, not just its own. (Completed
    // inserts are briefly counted twice — in `count` and in `inflight` —
    // which only errs toward growing early.)
    std::uint64_t inflight =
        shard.inflight.fetch_add(batch, std::memory_order_acq_rel) + batch;
    while (needs_growth(shard, inflight)) {
      lock.unlock();
      grow(shard);
      lock.lock();
      inflight = shard.inflight.load(std::memory_order_acquire);
    }
    for (Candidate* c : candidates) {
      probe_one(shard, shard_idx, *c, key_arena, tally);
    }
    shard.inflight.fetch_sub(batch, std::memory_order_acq_rel);
  }

  // Single-key convenience (root seeding, checkpoint-prefix seeding,
  // tests): a batch of one.
  Result intern(std::span<const std::int64_t> key, Payload payload,
                WordArena* key_arena, Tally* tally) {
    Candidate c;
    c.key = key;
    c.hash = hash_words_128(key);
    c.payload = std::move(payload);
    Candidate* p = &c;
    intern_batch(shard_of(c.hash), std::span<Candidate* const>(&p, 1),
                 key_arena, tally);
    return Result{c.id, c.inserted};
  }

  // Number of interned keys. Exact at quiescence; a racy read is a lower
  // bound on fully-published insertions.
  std::uint64_t size() const { return size_.load(std::memory_order_acquire); }

  // Quiescent-only: payload of a published id.
  const Payload& payload(std::uint32_t id) const {
    return entry_of(id).payload;
  }
  // Restricted mutation: the inserting worker may update its own node's
  // payload (e.g. truncation / expansion state) before quiescence; any
  // other thread only after.
  Payload& payload_mut(std::uint32_t id) { return entry_of(id).payload; }

  // Quiescent-only: the interned key words of a published id (points into
  // the inserter's arena).
  std::span<const std::int64_t> key(std::uint32_t id) const {
    const Entry& e = entry_of(id);
    return {e.key, e.len};
  }

  // Quiescent-only: exclusive upper bound on assigned ids (shard-striped
  // gaps included), for sizing id-indexed side arrays.
  std::uint32_t id_bound() const {
    std::uint32_t max_locals = 0;
    for (const Shard& shard : shards_) {
      const std::uint32_t n = shard.count.load(std::memory_order_acquire);
      if (n > max_locals) max_locals = n;
    }
    return max_locals << kShardBits;
  }

  struct Stats {
    std::uint64_t entries = 0;
    std::uint64_t slots = 0;
    std::uint64_t max_shard_entries = 0;
    std::uint64_t growths = 0;
  };

  // Quiescent-only occupancy statistics. Probe/CAS totals live in the
  // callers' tallies, not here.
  Stats stats() const {
    Stats out;
    for (const Shard& shard : shards_) {
      const std::uint64_t used = shard.count.load(std::memory_order_acquire);
      out.entries += used;
      out.slots += shard.slot_count;
      out.growths += shard.growths;
      if (used > out.max_shard_entries) out.max_shard_entries = used;
    }
    return out;
  }

 private:
  // Entry-log segmentation: segments are fixed at 4096 entries and never
  // move; the directory is pre-sized for the full local id space, so
  // directory slots are plain atomics published with CAS. 22 local bits x
  // 64 shards = 268M nodes, past the roadmap's 10^7-10^8 target, while the
  // table's fixed footprint (64 directories of 1024 pointers) stays small
  // enough that constructing a table for a tiny task costs microseconds,
  // not a multi-megabyte zeroing.
  static constexpr std::uint32_t kSegBits = 12;
  static constexpr std::uint32_t kSegSize = 1u << kSegBits;
  static constexpr std::uint32_t kMaxLocals = 1u << 22;
  static constexpr std::uint32_t kMaxSegments = kMaxLocals >> kSegBits;

  struct Entry {
    const std::int64_t* key = nullptr;
    std::uint32_t len = 0;
    Hash128 hash;  // kept so growth never rehashes key memory
    Payload payload;
  };

  struct Slot {
    std::atomic<std::uint64_t> fp{0};   // 0 = free
    std::atomic<std::uint32_t> id{kEmpty};  // kEmpty = unpublished
  };

  struct Shard {
    // Readers (probers) hold shared for a whole batch; growth holds
    // exclusive. Slot mutation itself is lock-free CAS under shared mode.
    std::shared_mutex grow_mu;
    std::unique_ptr<Slot[]> slots;
    std::size_t slot_count = 0;
    std::atomic<std::uint32_t> count{0};  // published+reserved entries
    std::vector<std::unique_ptr<Entry[]>> segment_storage;  // under grow_mu
    std::unique_ptr<std::atomic<Entry*>[]> segments;  // [kMaxSegments]
    std::mutex segment_mu;  // serializes rare segment allocation
    std::uint64_t growths = 0;  // under exclusive grow_mu
    // Worst-case inserts of every batch currently holding the shared lock;
    // see the capacity gate in intern_batch().
    std::atomic<std::uint64_t> inflight{0};
  };

  static std::uint64_t nonzero_fp(Hash128 h) { return h.hi == 0 ? 1 : h.hi; }

  const Entry& entry_of(std::uint32_t id) const {
    const Shard& shard = shards_[id & (kShardCount - 1)];
    const std::uint32_t local = id >> kShardBits;
    Entry* seg = shard.segments[local >> kSegBits].load(
        std::memory_order_acquire);
    return seg[local & (kSegSize - 1)];
  }
  Entry& entry_of(std::uint32_t id) {
    return const_cast<Entry&>(
        static_cast<const BatchInternTable*>(this)->entry_of(id));
  }

  Entry* ensure_segment(Shard& shard, std::uint32_t local) {
    const std::uint32_t seg_idx = local >> kSegBits;
    LBSA_CHECK_MSG(seg_idx < kMaxSegments,
                   "intern table shard id space exhausted");
    Entry* seg = shard.segments[seg_idx].load(std::memory_order_acquire);
    if (seg != nullptr) return seg;
    std::lock_guard<std::mutex> lock(shard.segment_mu);
    seg = shard.segments[seg_idx].load(std::memory_order_acquire);
    if (seg != nullptr) return seg;
    auto storage = std::make_unique<Entry[]>(kSegSize);
    seg = storage.get();
    shard.segment_storage.push_back(std::move(storage));
    shard.segments[seg_idx].store(seg, std::memory_order_release);
    return seg;
  }

  static bool needs_growth(const Shard& shard, std::size_t incoming) {
    const std::uint64_t worst =
        shard.count.load(std::memory_order_acquire) + incoming;
    return worst * 10 >= shard.slot_count * 7;
  }

  void grow(Shard& shard) {
    std::unique_lock<std::shared_mutex> lock(shard.grow_mu);
    // The caller's batch is still registered in `inflight`, so the target
    // capacity covers it (and every other waiting batch); a racing grower
    // may have already done the work, in which case the loop body is
    // skipped entirely.
    while (needs_growth(shard,
                        shard.inflight.load(std::memory_order_acquire))) {
      // Exclusive access: no prober is mid-publication (publication
      // completes under the shared lock), so every reserved slot is
      // published and the entry log is the complete source of truth.
      const std::size_t new_count = shard.slot_count * 2;
      auto new_slots = std::make_unique<Slot[]>(new_count);
      const std::size_t mask = new_count - 1;
      const std::uint32_t entries =
          shard.count.load(std::memory_order_relaxed);
      for (std::uint32_t local = 0; local < entries; ++local) {
        Entry* seg =
            shard.segments[local >> kSegBits].load(std::memory_order_relaxed);
        const Entry& e = seg[local & (kSegSize - 1)];
        std::size_t idx = (e.hash.lo >> kShardBits) & mask;
        while (new_slots[idx].fp.load(std::memory_order_relaxed) != 0) {
          idx = (idx + 1) & mask;
        }
        new_slots[idx].fp.store(nonzero_fp(e.hash),
                                std::memory_order_relaxed);
        new_slots[idx].id.store(
            (local << kShardBits) |
                static_cast<std::uint32_t>(&shard - shards_),
            std::memory_order_relaxed);
      }
      shard.slots = std::move(new_slots);
      shard.slot_count = new_count;
      ++shard.growths;
    }
  }

  void probe_one(Shard& shard, std::uint32_t shard_idx, Candidate& c,
                 WordArena* key_arena, Tally* tally) {
    const std::uint64_t want_fp = nonzero_fp(c.hash);
    const std::size_t mask = shard.slot_count - 1;
    Slot* slots = shard.slots.get();
    std::size_t idx =
        (static_cast<std::size_t>(c.hash.lo) >> kShardBits) & mask;
    while (true) {
      ++tally->probes;
      Slot& slot = slots[idx];
      std::uint64_t seen = slot.fp.load(std::memory_order_acquire);
      if (seen == 0) {
        if (slot.fp.compare_exchange_strong(seen, want_fp,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
          // Reserved. Assign the next local id, copy the key into the
          // caller's persistent arena, write the entry, then publish.
          const std::uint32_t local =
              shard.count.fetch_add(1, std::memory_order_acq_rel);
          LBSA_CHECK_MSG(local < kMaxLocals,
                         "intern table shard id space exhausted");
          Entry* seg = ensure_segment(shard, local);
          Entry& entry = seg[local & (kSegSize - 1)];
          std::int64_t* stored = key_arena->alloc(c.key.size());
          std::copy(c.key.begin(), c.key.end(), stored);
          entry.key = stored;
          entry.len = static_cast<std::uint32_t>(c.key.size());
          entry.hash = c.hash;
          entry.payload = std::move(c.payload);
          const std::uint32_t id = (local << kShardBits) | shard_idx;
          slot.id.store(id, std::memory_order_release);
          c.seq = size_.fetch_add(1, std::memory_order_acq_rel) + 1;
          ++tally->inserts;
          c.id = id;
          c.inserted = true;
          return;
        }
        // Lost the reservation race; `seen` now holds the winner's
        // fingerprint — fall through and treat it like any occupied slot.
        ++tally->cas_retries;
      }
      if (seen == want_fp) {
        // Possibly our key, possibly a fingerprint collision. Wait out the
        // winner's publication (a handful of stores away — it holds the
        // same shared lock, so it cannot be blocked), then verify.
        std::uint32_t id = slot.id.load(std::memory_order_acquire);
        for (int spins = 0; id == kEmpty;
             id = slot.id.load(std::memory_order_acquire)) {
          if (++spins >= 64) {
            std::this_thread::yield();  // single-core scheduling guard
            spins = 0;
          }
        }
        const Entry& entry = entry_of(id);
        if (entry.len == c.key.size() &&
            std::equal(c.key.begin(), c.key.end(), entry.key)) {
          c.id = id;
          c.inserted = false;
          return;
        }
      }
      idx = (idx + 1) & mask;
    }
  }

  Shard shards_[kShardCount];
  std::atomic<std::uint64_t> size_{0};
};

}  // namespace lbsa::modelcheck

#endif  // LBSA_MODELCHECK_BATCH_INTERN_H_
