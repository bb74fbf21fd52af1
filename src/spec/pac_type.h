// The n-pseudo-abortable-consensus (n-PAC) object — Algorithm 1 of the
// paper, the paper's central construction. An n-PAC object is the
// deterministic, non-abortable stand-in for an n-DAC object [Hadzilacos &
// Toueg, PODC'13]: PROPOSE(v, i) / DECIDE(i) pairs with label i in [1..n]
// simulate a propose on port i of an n-DAC object.
//
// Behavioural summary (Theorem 3.5):
//   * Agreement: two decide operations that both return non-⊥ return the
//     same value.
//   * Validity:  a non-⊥ decided value was proposed (and decided) by a
//     matching propose.
//   * Nontriviality: DECIDE(i) returns ⊥ iff the object is upset, or the
//     immediately preceding operation is not PROPOSE(-, i) — i.e. the object
//     "detected concurrency" between the propose and its matching decide.
//
// The object becomes permanently *upset* exactly when its operation history
// stops being legal (Lemma 3.2): a DECIDE(i) with no pending PROPOSE(-, i),
// or two PROPOSE(-, i) with no DECIDE(i) in between. Once upset it answers ⊥
// to every decide while still acknowledging every propose with "done" — that
// asymmetry (proposes never reveal upset-ness) is what the proofs of
// Claims 5.2.6–5.2.8 exploit.
#ifndef LBSA_SPEC_PAC_TYPE_H_
#define LBSA_SPEC_PAC_TYPE_H_

#include "spec/object_type.h"

namespace lbsa::spec {

class PacType final : public ObjectType {
 public:
  explicit PacType(int n);

  int n() const { return n_; }

  std::string name() const override;
  std::vector<std::int64_t> initial_state() const override;
  Status validate(const Operation& op) const override;
  void apply(std::span<const std::int64_t> state, const Operation& op,
             std::vector<Outcome>* outcomes) const override;
  // apply()'s one outcome, taken in place: rewrites `state` into the next
  // state and returns the response, allocating nothing. (n,m)-PAC steps its
  // P-part through it.
  Value step(const Operation& op, std::span<std::int64_t> state) const;
  bool deterministic() const override { return true; }
  // n-PAC is the one object here whose state stores pid-derived words: the
  // label register L and the V slots are indexed by 1-based labels, which
  // protocols derive from pids (label = pid + 1 in Algorithm 2).
  void rename_pids(std::span<const int> perm,
                   std::vector<std::int64_t>* state) const override;
  bool renames_pids() const override { return true; }
  // The renamer behind every PAC-bearing type: rewrites an n-PAC state in
  // place, allocation-free. perm may be shorter than n; pids past its end
  // are fixed points (a consensus-port protocol runs fewer than n
  // processes).
  void rename_state(std::span<const int> perm,
                    std::span<std::int64_t> state) const;
  std::string state_to_string(std::span<const std::int64_t> state) const override;

  // State layout: [upset, L, val, V[1], ..., V[n]] (labels are 1-based as in
  // the paper; V[i] lives at index 2 + i).
  static bool upset(std::span<const std::int64_t> state) { return state[0] != 0; }
  static Value label_var(std::span<const std::int64_t> state) { return state[1]; }
  static Value val_var(std::span<const std::int64_t> state) { return state[2]; }
  static Value v_slot(std::span<const std::int64_t> state, std::int64_t i) {
    return state[2 + static_cast<size_t>(i)];
  }

  // The size of a PacType(n) state vector.
  static size_t state_size(int n) { return 3 + static_cast<size_t>(n); }

 private:
  int n_;
};

}  // namespace lbsa::spec

#endif  // LBSA_SPEC_PAC_TYPE_H_
