// The n-consensus object, exactly as in the paper's footnote 6 (after
// Jayanti [12] and Qadri [13]):
//
//   "for the first n propose operations, the n-consensus object returns the
//    value of the first propose operation, and it returns a special value ⊥
//    to any subsequent propose operation."
//
// This bounded behaviour is load-bearing in the proof of Claim 4.2.9 ("after
// n operations have been performed on it, X is no longer useful in
// differentiating between configurations"), so we implement it literally:
// the object counts proposes and shuts off after n. Deterministic.
#ifndef LBSA_SPEC_CONSENSUS_TYPE_H_
#define LBSA_SPEC_CONSENSUS_TYPE_H_

#include "spec/object_type.h"

namespace lbsa::spec {

class NConsensusType final : public ObjectType {
 public:
  explicit NConsensusType(int n);

  int n() const { return n_; }

  std::string name() const override;
  std::vector<std::int64_t> initial_state() const override;
  Status validate(const Operation& op) const override;
  void apply(std::span<const std::int64_t> state, const Operation& op,
             std::vector<Outcome>* outcomes) const override;
  // apply()'s one outcome, taken in place: rewrites `state` into the next
  // state and returns the response, allocating nothing. (n,m)-PAC steps its
  // C-part through it.
  Value step(const Operation& op, std::span<std::int64_t> state) const;
  bool deterministic() const override { return true; }

  // State layout accessors (used by tests and the concurrent realm).
  static Value proposal_count(std::span<const std::int64_t> state) {
    return state[0];
  }
  static Value winner(std::span<const std::int64_t> state) { return state[1]; }

 private:
  int n_;
};

}  // namespace lbsa::spec

#endif  // LBSA_SPEC_CONSENSUS_TYPE_H_
