#include "modelcheck/batch_intern.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "base/arena.h"
#include "base/hashing.h"

namespace lbsa::modelcheck {
namespace {

std::vector<std::int64_t> key_for(std::int64_t i) {
  // Multi-word keys with shared prefixes, to exercise full-key verification.
  return {i % 7, i % 13, i, i * 2654435761LL};
}

using Table = BatchInternTable<std::int64_t>;

TEST(BatchInternTable, AssignsDistinctIdsAndDetectsDuplicates) {
  auto table = std::make_unique<Table>();
  WordArena arena;
  Table::Tally tally;
  std::map<std::int64_t, std::uint32_t> ids;
  for (std::int64_t i = 0; i < 1000; ++i) {
    const auto key = key_for(i);
    const auto res = table->intern(key, i, &arena, &tally);
    EXPECT_TRUE(res.inserted);
    ids[i] = res.id;
  }
  EXPECT_EQ(table->size(), 1000u);
  EXPECT_EQ(tally.inserts, 1000u);
  for (std::int64_t i = 0; i < 1000; ++i) {
    const auto key = key_for(i);
    const auto res = table->intern(key, -1, &arena, &tally);
    EXPECT_FALSE(res.inserted);
    EXPECT_EQ(res.id, ids[i]);
    // The duplicate's payload (-1) was not moved in.
    EXPECT_EQ(table->payload(res.id), i);
    // Interned key words round-trip.
    const auto stored = table->key(res.id);
    EXPECT_TRUE(std::equal(key.begin(), key.end(), stored.begin(),
                           stored.end()));
  }
  EXPECT_EQ(table->size(), 1000u);
  EXPECT_EQ(tally.inserts, 1000u);
  std::set<std::uint32_t> distinct;
  for (const auto& [_, id] : ids) {
    EXPECT_LT(id, table->id_bound());
    distinct.insert(id);
  }
  EXPECT_EQ(distinct.size(), 1000u);
}

TEST(BatchInternTable, BatchedProbesMatchSingleKeyPath) {
  auto table = std::make_unique<Table>();
  WordArena arena;
  Table::Tally tally;
  // Two batches with an overlap: the second batch's overlapping candidates
  // must come back !inserted with the first batch's ids.
  auto run_batch = [&](std::int64_t begin, std::int64_t end) {
    std::vector<Table::Candidate> cands(static_cast<std::size_t>(end - begin));
    std::vector<std::vector<std::int64_t>> keys;
    for (std::int64_t i = begin; i < end; ++i) {
      keys.push_back(key_for(i));
      auto& c = cands[static_cast<std::size_t>(i - begin)];
      c.key = keys.back();
      c.hash = hash_words_128(c.key);
      c.payload = i;
    }
    std::vector<std::vector<Table::Candidate*>> buckets(Table::kShardCount);
    for (auto& c : cands) buckets[Table::shard_of(c.hash)].push_back(&c);
    for (std::uint32_t s = 0; s < Table::kShardCount; ++s) {
      if (!buckets[s].empty()) {
        table->intern_batch(s, buckets[s], &arena, &tally);
      }
    }
    std::map<std::int64_t, std::pair<std::uint32_t, bool>> out;
    for (std::size_t j = 0; j < cands.size(); ++j) {
      out[begin + static_cast<std::int64_t>(j)] = {cands[j].id,
                                                   cands[j].inserted};
    }
    return out;
  };
  const auto first = run_batch(0, 300);
  const auto second = run_batch(200, 500);
  for (const auto& [i, res] : first) EXPECT_TRUE(res.second) << i;
  for (const auto& [i, res] : second) {
    EXPECT_EQ(res.second, i >= 300) << i;
    if (i < 300) {
      EXPECT_EQ(res.first, first.at(i).first) << i;
    }
  }
  EXPECT_EQ(table->size(), 500u);
}

TEST(BatchInternTable, SeqNumbersInsertionsFromOne) {
  auto table = std::make_unique<Table>();
  WordArena arena;
  Table::Tally tally;
  std::set<std::uint64_t> seqs;
  for (std::int64_t i = 0; i < 100; ++i) {
    Table::Candidate c;
    const auto key = key_for(i);
    c.key = key;
    c.hash = hash_words_128(c.key);
    c.payload = i;
    Table::Candidate* p = &c;
    table->intern_batch(Table::shard_of(c.hash), {&p, 1}, &arena, &tally);
    ASSERT_TRUE(c.inserted);
    seqs.insert(c.seq);
  }
  // 1-based, dense, unique.
  EXPECT_EQ(seqs.size(), 100u);
  EXPECT_EQ(*seqs.begin(), 1u);
  EXPECT_EQ(*seqs.rbegin(), 100u);
}

// The high-contention hammer, and the growth-correctness gate: a tiny
// initial shard size forces several growth cycles mid-flight, and the final
// id SET must equal the one a mutex-per-shard table would assign for the
// same key universe. That set follows from routing alone: ids are
// (local << 6) | shard with per-shard dense locals — schedule-dependent per
// key, fixed as a set. Run under TSan (-DLBSA_SANITIZE=thread) this is the
// data-race gate for the batched table.
class BatchInternHammer : public ::testing::TestWithParam<int> {};

TEST_P(BatchInternHammer, ConcurrentBatchesMatchMutexTable) {
  const int threads = GetParam();
  constexpr std::int64_t kUniverse = 6000;
  constexpr std::size_t kBatch = 32;
  // 8 initial slots/shard: ~6000/64 ≈ 94 entries per shard means four-plus
  // doublings (8 -> 16 -> 32 -> 64 -> 128 -> 256) under load.
  auto table = std::make_unique<Table>(/*initial_slots_per_shard=*/8);

  std::vector<std::vector<std::pair<std::int64_t, std::uint32_t>>> seen(
      static_cast<std::size_t>(threads));
  // Per-worker arenas (as the explorer uses them), hoisted out of the
  // worker lambdas: interned keys live in the winning worker's arena, so
  // the arenas must outlive the table's last key() read below.
  std::vector<std::unique_ptr<WordArena>> arenas;
  for (int t = 0; t < threads; ++t) {
    arenas.push_back(std::make_unique<WordArena>());
  }
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      WordArena& arena = *arenas[static_cast<std::size_t>(t)];
      Table::Tally tally;
      auto& observations = seen[static_cast<std::size_t>(t)];
      std::vector<std::vector<std::int64_t>> keys(kBatch);
      std::vector<Table::Candidate> cands(kBatch);
      std::vector<std::vector<Table::Candidate*>> buckets(Table::kShardCount);
      // Each thread covers 3/4 of the universe, offset by its index, in
      // batches — most keys are contended by several threads. A single
      // thread covers everything itself (no peer fills the gap).
      const std::int64_t span = threads == 1 ? kUniverse : kUniverse * 3 / 4;
      for (std::int64_t step = 0; step < span; step += kBatch) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::int64_t>(kBatch, span - step));
        for (std::size_t j = 0; j < n; ++j) {
          const std::int64_t i =
              (step + static_cast<std::int64_t>(j) +
               t * kUniverse / threads) % kUniverse;
          keys[j] = key_for(i);
          cands[j] = Table::Candidate{};
          cands[j].key = keys[j];
          cands[j].hash = hash_words_128(cands[j].key);
          cands[j].payload = i;
        }
        for (auto& b : buckets) b.clear();
        for (std::size_t j = 0; j < n; ++j) {
          buckets[Table::shard_of(cands[j].hash)].push_back(&cands[j]);
        }
        for (std::uint32_t s = 0; s < Table::kShardCount; ++s) {
          if (!buckets[s].empty()) {
            table->intern_batch(s, buckets[s], &arena, &tally);
          }
        }
        // Record (key, id) observations only; payload()/key() reads wait
        // for quiescence (they are advertised quiescent-only).
        for (std::size_t j = 0; j < n; ++j) {
          observations.emplace_back(keys[j][2], cands[j].id);
        }
      }
    });
  }
  for (auto& t : pool) t.join();

  EXPECT_EQ(table->size(), static_cast<std::uint64_t>(kUniverse));
  EXPECT_GE(table->stats().growths, 4u * Table::kShardCount / 2);

  // Every observation of a key agrees on its id, across all threads.
  std::map<std::int64_t, std::uint32_t> winner;
  for (const auto& observations : seen) {
    for (const auto& [i, id] : observations) {
      const auto it = winner.emplace(i, id).first;
      EXPECT_EQ(it->second, id) << "key " << i << " saw two ids";
    }
  }
  EXPECT_EQ(winner.size(), static_cast<std::size_t>(kUniverse));

  // Payloads and keys landed intact.
  std::set<std::uint32_t> batched_ids;
  for (const auto& [i, id] : winner) {
    EXPECT_EQ(table->payload(id), i);
    const auto key = key_for(i);
    const auto stored = table->key(id);
    EXPECT_TRUE(
        std::equal(key.begin(), key.end(), stored.begin(), stored.end()));
    batched_ids.insert(id);
  }

  // Expected id set from the routing rule alone, whatever the insertion
  // order: a key's shard is the low 6 bits of its hash, locals are dense
  // per shard from 0, and id = (local << 6) | shard.
  std::array<std::uint32_t, 64> shard_sizes{};
  for (std::int64_t i = 0; i < kUniverse; ++i) {
    ++shard_sizes[hash_words_128(key_for(i)).lo & 63];
  }
  std::set<std::uint32_t> expected_ids;
  for (std::uint32_t shard = 0; shard < 64; ++shard) {
    for (std::uint32_t local = 0; local < shard_sizes[shard]; ++local) {
      expected_ids.insert((local << 6) | shard);
    }
  }
  EXPECT_EQ(batched_ids, expected_ids);
}

INSTANTIATE_TEST_SUITE_P(Threads, BatchInternHammer,
                         ::testing::Values(1, 2, 8),
                         [](const auto& info) {
                           return "t" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace lbsa::modelcheck
