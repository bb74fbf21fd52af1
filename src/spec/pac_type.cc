#include "spec/pac_type.h"

#include <utility>

#include "base/check.h"

namespace lbsa::spec {

PacType::PacType(int n) : n_(n) { LBSA_CHECK(n >= 1); }

std::string PacType::name() const { return std::to_string(n_) + "-PAC"; }

std::vector<std::int64_t> PacType::initial_state() const {
  // upset = false, L = NIL, val = NIL, V[1..n] = NIL.
  std::vector<std::int64_t> state(state_size(n_), kNil);
  state[0] = 0;
  return state;
}

Status PacType::validate(const Operation& op) const {
  switch (op.code) {
    case OpCode::kProposeLabeled: {
      if (!is_ordinary(op.arg0)) {
        return invalid_argument("PROPOSE(v, i) requires an ordinary value");
      }
      if (op.arg1 < 1 || op.arg1 > n_) {
        return out_of_range("PROPOSE(v, i) label outside [1..n]");
      }
      return Status::ok();
    }
    case OpCode::kDecideLabeled: {
      if (op.arg0 < 1 || op.arg0 > n_) {
        return out_of_range("DECIDE(i) label outside [1..n]");
      }
      if (op.arg1 != kNil) return invalid_argument("DECIDE takes one argument");
      return Status::ok();
    }
    default:
      return invalid_argument("n-PAC accepts only PROPOSE(v, i) / DECIDE(i)");
  }
}

void PacType::apply(std::span<const std::int64_t> state, const Operation& op,
                    std::vector<Outcome>* outcomes) const {
  std::vector<std::int64_t> next(state.begin(), state.end());
  const Value response = step(op, next);
  outcomes->push_back(Outcome{response, std::move(next)});
}

Value PacType::step(const Operation& op, std::span<std::int64_t> state) const {
  LBSA_CHECK(state.size() == state_size(n_));
  bool is_upset = state[0] != 0;

  if (op.code == OpCode::kProposeLabeled) {
    // Algorithm 1, PROPOSE(v, i):
    //   if V[i] != NIL then upset <- true
    //   if upset = false then L <- i; V[i] <- v
    //   return done
    const Value v = op.arg0;
    const std::int64_t i = op.arg1;
    const size_t vi = 2 + static_cast<size_t>(i);
    if (state[vi] != kNil) {
      is_upset = true;
      state[0] = 1;
    }
    if (!is_upset) {
      state[1] = i;   // L <- i
      state[vi] = v;  // V[i] <- v
    }
    return kDone;
  }

  LBSA_CHECK(op.code == OpCode::kDecideLabeled);
  // Algorithm 1, DECIDE(i):
  //   if V[i] = NIL then upset <- true
  //   if upset = true then return ⊥            (early return: L, V untouched)
  //   if L != i then temp <- ⊥
  //   else { if val = NIL then val <- V[i]; temp <- val }
  //   L <- NIL; V[i] <- NIL
  //   return temp
  const std::int64_t i = op.arg0;
  const size_t vi = 2 + static_cast<size_t>(i);
  if (state[vi] == kNil) {
    is_upset = true;
    state[0] = 1;
  }
  if (is_upset) return kBottom;
  Value temp = kBottom;
  if (state[1] == i) {  // L == i: no operation intervened since the propose
    if (state[2] == kNil) state[2] = state[vi];  // val <- V[i]
    temp = state[2];
  }
  state[1] = kNil;   // L <- NIL
  state[vi] = kNil;  // V[i] <- NIL
  return temp;
}

void PacType::rename_pids(std::span<const int> perm,
                          std::vector<std::int64_t>* state) const {
  LBSA_CHECK(state->size() == state_size(n_));
  LBSA_CHECK(static_cast<int>(perm.size()) == n_);
  rename_state(perm, *state);
}

void PacType::rename_state(std::span<const int> perm,
                           std::span<std::int64_t> state) const {
  LBSA_CHECK(state.size() == state_size(n_));
  LBSA_CHECK(static_cast<int>(perm.size()) <= n_);
  for (int q : perm) LBSA_CHECK(q >= 0 && q < n_);
  const auto target = [perm](int p) {
    return static_cast<std::size_t>(p) < perm.size()
               ? perm[static_cast<std::size_t>(p)]
               : p;
  };
  // L holds a 1-based label derived from a pid (or NIL); rename it if it is
  // a live label.
  if (state[1] >= 1 && state[1] <= n_) {
    state[1] = target(static_cast<int>(state[1] - 1)) + 1;
  }
  // Permute the label-indexed V slots, new V[perm[p]+1] = old V[p+1], one
  // cycle at a time from its smallest member. The walk that finds that
  // member is bounded by n, so a non-permutation cannot hang it.
  std::int64_t* v = state.data() + 3;
  for (int start = 0; start < n_; ++start) {
    int q = target(start);
    for (int steps = 0; q > start && steps < n_; ++steps) q = target(q);
    if (q != start) continue;
    std::int64_t carry = v[start];
    int p = start;
    do {
      p = target(p);
      std::swap(carry, v[p]);
    } while (p != start);
  }
}

std::string PacType::state_to_string(
    std::span<const std::int64_t> state) const {
  std::string out = "{upset=";
  out += state[0] != 0 ? "true" : "false";
  out += ", L=" + value_to_string(state[1]);
  out += ", val=" + value_to_string(state[2]);
  out += ", V=[";
  for (int i = 1; i <= n_; ++i) {
    if (i > 1) out += ", ";
    out += value_to_string(v_slot(state, i));
  }
  out += "]}";
  return out;
}

}  // namespace lbsa::spec
