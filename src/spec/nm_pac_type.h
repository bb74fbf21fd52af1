// The (n,m)-PAC object of Section 5: the disjoint union of an n-PAC object P
// and an m-consensus object C behind one interface.
//
//   PROPOSEC(v)    -> C.PROPOSE(v)
//   PROPOSEP(v, i) -> P.PROPOSE(v, i)
//   DECIDEP(i)     -> P.DECIDE(i)
//
// Deterministic (both components are). Theorem 5.3: for m >= 2 this object
// sits at level m of the consensus hierarchy regardless of n; the paper's
// separating object O_n is the (n+1, n)-PAC object.
#ifndef LBSA_SPEC_NM_PAC_TYPE_H_
#define LBSA_SPEC_NM_PAC_TYPE_H_

#include "spec/consensus_type.h"
#include "spec/pac_type.h"

namespace lbsa::spec {

class NmPacType final : public ObjectType {
 public:
  NmPacType(int n, int m);

  int n() const { return pac_.n(); }
  int m() const { return consensus_.n(); }

  std::string name() const override;
  std::vector<std::int64_t> initial_state() const override;
  Status validate(const Operation& op) const override;
  void apply(std::span<const std::int64_t> state, const Operation& op,
             std::vector<Outcome>* outcomes) const override;
  bool deterministic() const override { return true; }
  // The P-part stores pid-derived words (the label register L and the
  // label-indexed V slots); the C-part ([count, winner]) holds only values.
  // Protocols on the consensus port may run with fewer than n processes, so
  // a short permutation is accepted: PacType::rename_state keeps the pids
  // past its end fixed.
  void rename_pids(std::span<const int> perm,
                   std::vector<std::int64_t>* state) const override;
  bool renames_pids() const override { return true; }
  std::string state_to_string(std::span<const std::int64_t> state) const override;

  // State layout: P's state followed by C's state.
  std::span<const std::int64_t> pac_part(
      std::span<const std::int64_t> state) const {
    return state.subspan(0, PacType::state_size(pac_.n()));
  }
  std::span<const std::int64_t> consensus_part(
      std::span<const std::int64_t> state) const {
    return state.subspan(PacType::state_size(pac_.n()));
  }

  const PacType& pac_type() const { return pac_; }
  const NConsensusType& consensus_type() const { return consensus_; }

 private:
  PacType pac_;
  NConsensusType consensus_;
};

// O_n = (n+1, n)-PAC (Definition 6.1).
inline NmPacType make_o_n_type(int n) { return NmPacType(n + 1, n); }

}  // namespace lbsa::spec

#endif  // LBSA_SPEC_NM_PAC_TYPE_H_
