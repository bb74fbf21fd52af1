// Bump-pointer arenas with stable addresses, for the explorer hot path.
//
// WordArena hands out contiguous runs of int64 words from geometrically
// growing blocks. Unlike a std::vector, a block never moves once allocated,
// so pointers into the arena stay valid for the arena's lifetime — the
// explored graph keeps every node's intern key in one (packed bytes, each
// key padded to whole words), and the
// batched intern table (modelcheck/batch_intern.h) stores key spans that
// point straight into per-worker arenas instead of copying every key into a
// shard-owned pool under a lock.
//
// Two usage patterns, both single-threaded per arena instance:
//   * persistent key arena: alloc() only; freed wholesale at destruction.
//   * scratch arena: alloc() during a batch, then reset() — the bump
//     cursor rewinds to the first block but the blocks are retained, so a
//     warmed-up scratch arena allocates nothing on subsequent batches.
#ifndef LBSA_BASE_ARENA_H_
#define LBSA_BASE_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace lbsa {

class WordArena {
 public:
  explicit WordArena(std::size_t first_block_words = 4096)
      : first_block_words_(first_block_words == 0 ? 1 : first_block_words) {}
  WordArena(const WordArena&) = delete;
  WordArena& operator=(const WordArena&) = delete;
  WordArena(WordArena&&) = default;
  WordArena& operator=(WordArena&&) = default;

  // A run of n words (uninitialized). Stable for the arena's lifetime
  // (reset() notwithstanding). n == 0 returns a unique non-null cursor.
  std::int64_t* alloc(std::size_t n) {
    if (block_ >= blocks_.size() || used_ + n > blocks_[block_].words) {
      next_block(n);
    }
    std::int64_t* out = blocks_[block_].data.get() + used_;
    used_ += n;
    allocated_ += n;
    return out;
  }

  // Rewinds the bump cursor to the start, retaining every block. Previously
  // returned pointers become dangling: only for scratch arenas whose
  // contents have been fully consumed.
  void reset() {
    block_ = 0;
    used_ = 0;
    allocated_ = 0;
  }

  // Total words handed out since construction / the last reset().
  std::uint64_t allocated_words() const { return allocated_; }
  // Total words of block capacity currently held.
  std::uint64_t capacity_words() const {
    std::uint64_t total = 0;
    for (const Block& b : blocks_) total += b.words;
    return total;
  }

 private:
  struct Block {
    std::unique_ptr<std::int64_t[]> data;
    std::size_t words = 0;
  };

  void next_block(std::size_t min_words) {
    // Advance into an already-retained block when it fits (post-reset path).
    while (block_ + 1 < blocks_.size()) {
      ++block_;
      used_ = 0;
      if (min_words <= blocks_[block_].words) return;
    }
    std::size_t words = blocks_.empty() ? first_block_words_
                                        : blocks_.back().words * 2;
    if (words < min_words) words = min_words;
    // Not zero-filled: alloc() is uninitialized, so a block's unused tail
    // never becomes resident.
    blocks_.push_back(
        Block{std::make_unique_for_overwrite<std::int64_t[]>(words), words});
    block_ = blocks_.size() - 1;
    used_ = 0;
  }

  std::size_t first_block_words_;
  std::vector<Block> blocks_;
  std::size_t block_ = 0;  // index of the block being bumped
  std::size_t used_ = 0;   // words used within blocks_[block_]
  std::uint64_t allocated_ = 0;
};

}  // namespace lbsa

#endif  // LBSA_BASE_ARENA_H_
