// A set of 64-bit fingerprints for the fuzzer's coverage sets: open
// addressing with linear probing in a power-of-two table kept at most half
// full, so an insert allocates only when the table doubles. A slot holding
// 0 is empty; the value 0 is still a legal member, kept in a flag beside
// the table. values() lists the members in insertion order, and clear()
// empties only the slots they occupy, so a set reused across many short
// runs costs each run O(its entries), not O(its capacity).
#ifndef LBSA_BASE_FINGERPRINT_SET_H_
#define LBSA_BASE_FINGERPRINT_SET_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace lbsa {

class FingerprintSet {
 public:
  // Adds v; true iff it was not already a member.
  bool insert(std::uint64_t v) {
    if (v == 0) {
      if (has_zero_) return false;
      has_zero_ = true;
      values_.push_back(0);
      return true;
    }
    if (2 * (values_.size() + 1) > slots_.size()) grow();
    std::uint64_t& slot = slots_[find(v)];
    if (slot == v) return false;
    slot = v;
    values_.push_back(v);
    return true;
  }

  bool contains(std::uint64_t v) const {
    if (v == 0) return has_zero_;
    return !slots_.empty() && slots_[find(v)] == v;
  }

  std::size_t size() const { return values_.size(); }
  // The members, in insertion order.
  std::span<const std::uint64_t> values() const { return values_; }

  // Empties the set and keeps its storage. Members leave in reverse
  // insertion order: the table then always equals one built by inserting
  // the remaining members, so each is found on its probe path.
  void clear() {
    for (auto it = values_.rbegin(); it != values_.rend(); ++it) {
      if (*it != 0) slots_[find(*it)] = 0;
    }
    values_.clear();
    has_zero_ = false;
  }

 private:
  static constexpr std::size_t kMinSlots = 64;

  // The slot holding v, or the empty slot where v would go. Fibonacci
  // hashing: the table index is the top bits of v times 2^64 / phi.
  std::size_t find(std::uint64_t v) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>((v * 0x9e3779b97f4a7c15ULL) >>
                                             shift_);
    while (slots_[i] != 0 && slots_[i] != v) i = (i + 1) & mask;
    return i;
  }

  // Doubles the table and re-inserts the members in insertion order.
  void grow() {
    const std::size_t size =
        slots_.empty() ? kMinSlots : 2 * slots_.size();
    slots_.assign(size, 0);
    shift_ = 64 - std::countr_zero(size);
    for (std::uint64_t v : values_) {
      if (v != 0) slots_[find(v)] = v;
    }
  }

  std::vector<std::uint64_t> slots_;
  std::vector<std::uint64_t> values_;
  int shift_ = 64;
  bool has_zero_ = false;
};

}  // namespace lbsa

#endif  // LBSA_BASE_FINGERPRINT_SET_H_
