#include "spec/consensus_type.h"

#include <utility>

#include "base/check.h"

namespace lbsa::spec {

NConsensusType::NConsensusType(int n) : n_(n) { LBSA_CHECK(n >= 1); }

std::string NConsensusType::name() const {
  return std::to_string(n_) + "-consensus";
}

std::vector<std::int64_t> NConsensusType::initial_state() const {
  // [proposal_count, winner]
  return {0, kNil};
}

Status NConsensusType::validate(const Operation& op) const {
  if (op.code != OpCode::kPropose) {
    return invalid_argument("n-consensus accepts only PROPOSE(v)");
  }
  if (!is_ordinary(op.arg0)) {
    return invalid_argument("PROPOSE requires an ordinary value");
  }
  if (op.arg1 != kNil) return invalid_argument("PROPOSE takes one argument");
  return Status::ok();
}

void NConsensusType::apply(std::span<const std::int64_t> state,
                           const Operation& op,
                           std::vector<Outcome>* outcomes) const {
  std::vector<std::int64_t> next(state.begin(), state.end());
  const Value response = step(op, next);
  outcomes->push_back(Outcome{response, std::move(next)});
}

Value NConsensusType::step(const Operation& op,
                           std::span<std::int64_t> state) const {
  LBSA_CHECK(state.size() == 2);
  LBSA_CHECK(op.code == OpCode::kPropose);
  const std::int64_t count = state[0];
  // Exhausted: every subsequent propose returns ⊥ and leaves the state
  // unchanged — the object can no longer convey information.
  if (count >= n_) return kBottom;
  const Value decided = (count == 0) ? op.arg0 : state[1];
  state[0] = count + 1;
  state[1] = decided;
  return decided;
}

}  // namespace lbsa::spec
