// Classic consensus-hierarchy objects (Herlihy [10]). Not constructions of
// the paper, but the canonical inhabitants of the hierarchy the paper's
// separation result is about: test&set and FIFO queues at level 2,
// compare&swap at level ∞. The library ships them so that the paper's
// objects (O_n at level n, 2-SA at level 1) can be compared against the
// familiar landscape — in protocols and power sequences.
#ifndef LBSA_SPEC_CLASSIC_TYPES_H_
#define LBSA_SPEC_CLASSIC_TYPES_H_

#include "spec/object_type.h"

namespace lbsa::spec {

// One-shot-ish test&set bit: TAS() returns 0 to the first caller (who "wins")
// and 1 to everyone after. Consensus number 2.
class TestAndSetType final : public ObjectType {
 public:
  TestAndSetType() = default;

  std::string name() const override { return "test&set"; }
  std::vector<std::int64_t> initial_state() const override { return {0}; }
  Status validate(const Operation& op) const override;
  void apply(std::span<const std::int64_t> state, const Operation& op,
             std::vector<Outcome>* outcomes) const override;
  bool deterministic() const override { return true; }
};

// Compare&swap cell with a READ. CAS(expected, desired) installs desired iff
// the current value equals expected, and returns the value observed BEFORE
// the operation (so success is "response == expected"). Consensus number ∞.
class CompareAndSwapType final : public ObjectType {
 public:
  explicit CompareAndSwapType(Value initial_value = kNil);

  std::string name() const override { return "compare&swap"; }
  std::vector<std::int64_t> initial_state() const override;
  Status validate(const Operation& op) const override;
  void apply(std::span<const std::int64_t> state, const Operation& op,
             std::vector<Outcome>* outcomes) const override;
  bool deterministic() const override { return true; }

 private:
  Value initial_value_;
};

// Bounded FIFO queue. ENQUEUE(v) returns done (⊥ when full); DEQUEUE()
// returns the head (NIL when empty). Consensus number 2.
// State layout: [size, item_0 (head), ..., item_{capacity-1}].
class QueueType final : public ObjectType {
 public:
  explicit QueueType(int capacity, std::vector<Value> initial_items = {});

  int capacity() const { return capacity_; }

  std::string name() const override;
  std::vector<std::int64_t> initial_state() const override;
  Status validate(const Operation& op) const override;
  void apply(std::span<const std::int64_t> state, const Operation& op,
             std::vector<Outcome>* outcomes) const override;
  bool deterministic() const override { return true; }

  static std::int64_t size(std::span<const std::int64_t> state) {
    return state[0];
  }

 private:
  int capacity_;
  std::vector<Value> initial_items_;
};

}  // namespace lbsa::spec

#endif  // LBSA_SPEC_CLASSIC_TYPES_H_
