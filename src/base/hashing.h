// Hashing utilities for configuration interning in the model checker and
// the linearizability checker. All hashing here is for in-memory hash
// tables only (never persisted), so we use a fast mix rather than a
// cryptographic hash.
#ifndef LBSA_BASE_HASHING_H_
#define LBSA_BASE_HASHING_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

namespace lbsa {

// Post-mix from splitmix64; good avalanche for word-sized inputs.
constexpr std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Boost-style combine with a 64-bit golden-ratio constant.
constexpr std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t v) {
  return seed ^ (mix64(v) + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

// Folds each word into h with hash_combine. hash_words is the fold of a
// span after its length, so a hash of words held in several pieces can be
// folded a piece at a time.
inline std::uint64_t fold_words(std::uint64_t h,
                                std::span<const std::int64_t> words) {
  for (std::int64_t w : words) h = hash_combine(h, static_cast<std::uint64_t>(w));
  return h;
}

// Hash of a span of words (state vectors, configuration snapshots).
inline std::uint64_t hash_words(std::span<const std::int64_t> words,
                                std::uint64_t seed = 0x243f6a8885a308d3ULL) {
  return fold_words(
      hash_combine(seed, static_cast<std::uint64_t>(words.size())), words);
}

// Hash of a byte string (the model checker's packed node keys): the same
// combine as hash_words, with the length mixed in first, then one word per
// 8-byte little-endian chunk, the last zero-padded.
inline std::uint64_t hash_bytes(std::span<const std::uint8_t> bytes,
                                std::uint64_t seed = 0x243f6a8885a308d3ULL) {
  std::uint64_t h = hash_combine(seed, static_cast<std::uint64_t>(bytes.size()));
  auto chunk = [&](std::size_t at, std::size_t n) {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes.data() + at, n);
    if constexpr (std::endian::native == std::endian::big) {
      w = __builtin_bswap64(w);
    }
    return w;
  };
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) h = hash_combine(h, chunk(i, 8));
  if (i < bytes.size()) h = hash_combine(h, chunk(i, bytes.size() - i));
  return h;
}

// A 2-word (128-bit) hash for interning tables that store a fingerprint
// instead of rehashing the key on every probe: `lo` routes (shard/bucket
// selection), `hi` is the stored fingerprint. Both lanes are full
// independent hashes (distinct seeds), computed in one pass; equality of
// both lanes is still only probabilistic, so tables must verify the full
// key on a fingerprint match.
struct Hash128 {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  friend bool operator==(const Hash128&, const Hash128&) = default;
};

inline Hash128 hash_words_128(std::span<const std::int64_t> words) {
  constexpr std::uint64_t kSeedLo = 0x243f6a8885a308d3ULL;  // pi
  constexpr std::uint64_t kSeedHi = 0xb7e151628aed2a6bULL;  // e
  std::uint64_t lo = hash_combine(kSeedLo, static_cast<std::uint64_t>(words.size()));
  std::uint64_t hi = hash_combine(kSeedHi, static_cast<std::uint64_t>(words.size()));
  for (std::int64_t w : words) {
    const auto u = static_cast<std::uint64_t>(w);
    lo = hash_combine(lo, u);
    hi = hash_combine(hi, u);
  }
  return Hash128{lo, hi};
}

}  // namespace lbsa

#endif  // LBSA_BASE_HASHING_H_
