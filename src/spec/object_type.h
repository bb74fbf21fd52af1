// Sequential specifications of linearizable shared objects.
//
// Every object in the paper — registers, n-consensus objects (footnote 6),
// strong 2-SA objects (Algorithm 3), (n,k)-SA objects, n-PAC objects
// (Algorithm 1), and their combinations (n,m)-PAC and O'_n — is specified
// here as a deterministic-or-nondeterministic sequential state machine:
//
//   apply : State x Operation -> set of (response, State')
//
// States are flattened std::vector<int64_t> so the simulator, the model
// checker, and the linearizability checker can snapshot, hash, and compare
// configurations without knowing anything type-specific. A deterministic
// object yields exactly one outcome per (state, operation); the only
// nondeterministic objects in the paper are the (n,k)-SA family for k >= 2,
// whose PROPOSE returns an arbitrarily selected member of the object's STATE
// set — apply enumerates every member as a separate outcome, and schedulers
// / adversaries pick among them.
#ifndef LBSA_SPEC_OBJECT_TYPE_H_
#define LBSA_SPEC_OBJECT_TYPE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "base/status.h"
#include "base/values.h"

namespace lbsa::spec {

// Operation codes across all object types. Each ObjectType documents and
// validates the subset it accepts.
enum class OpCode : std::int32_t {
  kRead = 0,        // registers:            READ()            -> value
  kWrite,           // registers:            WRITE(v)          -> done
  kPropose,         // consensus / (n,k)-SA: PROPOSE(v)        -> value | ⊥
  kProposeLabeled,  // n-PAC:                PROPOSE(v, i)     -> done
  kDecideLabeled,   // n-PAC:                DECIDE(i)         -> value | ⊥
  kProposeC,        // (n,m)-PAC:            PROPOSEC(v)       -> value | ⊥
  kProposeP,        // (n,m)-PAC:            PROPOSEP(v, i)    -> done
  kDecideP,         // (n,m)-PAC:            DECIDEP(i)        -> value | ⊥
  kProposeK,        // O'_n:                 PROPOSE(v, k)     -> value | ⊥
  // Classic consensus-hierarchy objects (Herlihy [10]) — not paper objects,
  // but the context the consensus hierarchy lives in:
  kTestAndSet,      // test&set:             TAS()             -> 0 (won) | 1
  kCompareAndSwap,  // compare&swap:         CAS(expected, new) -> old value
  kEnqueue,         // FIFO queue:           ENQUEUE(v)        -> done | ⊥ (full)
  kDequeue,         // FIFO queue:           DEQUEUE()         -> value | NIL (empty)
};

// Short mnemonic for an OpCode ("READ", "PROPOSE", ...).
const char* op_code_name(OpCode code);

// An operation instance: an opcode plus up to two arguments. The meaning of
// args is per-opcode (value, label, or level); unused slots must be kNil.
struct Operation {
  OpCode code = OpCode::kRead;
  Value arg0 = kNil;
  Value arg1 = kNil;

  friend bool operator==(const Operation&, const Operation&) = default;
};

// Convenience constructors mirroring the paper's notation.
Operation make_read();
Operation make_write(Value v);
Operation make_propose(Value v);
Operation make_propose_labeled(Value v, std::int64_t label);
Operation make_decide_labeled(std::int64_t label);
Operation make_propose_c(Value v);
Operation make_propose_p(Value v, std::int64_t label);
Operation make_decide_p(std::int64_t label);
Operation make_propose_k(Value v, std::int64_t level);
Operation make_test_and_set();
// expected may be kNil (to match an unset slot); desired must be ordinary.
Operation make_compare_and_swap(Value expected, Value desired);
Operation make_enqueue(Value v);
Operation make_dequeue();

// One possible effect of applying an operation.
struct Outcome {
  Value response = kNil;
  std::vector<std::int64_t> next_state;

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

// A sequential object specification. Implementations must be stateless
// (all object state lives in the state vectors), so a single ObjectType
// instance can serve any number of object instances concurrently.
class ObjectType {
 public:
  virtual ~ObjectType() = default;

  // Human-readable type name, e.g. "3-PAC", "(4,2)-SA", "register".
  virtual std::string name() const = 0;

  // State vector of a freshly created object.
  virtual std::vector<std::int64_t> initial_state() const = 0;

  // OK iff op is well-formed for this type (accepted opcode, label/level in
  // range, ordinary proposal values). apply() must only be called with
  // validated operations.
  virtual Status validate(const Operation& op) const = 0;

  // Enumerates every legal (response, next-state) pair for op in `state`.
  // Appends at least one outcome; outcomes are distinct. `state` must have
  // been produced by this type.
  virtual void apply(std::span<const std::int64_t> state, const Operation& op,
                     std::vector<Outcome>* outcomes) const = 0;

  // True iff apply always yields exactly one outcome.
  virtual bool deterministic() const = 0;

  // Rewrites pid-valued words inside `state` under the process renaming
  // perm (perm[old_pid] = new_pid, pids 0-based). The default assumes the
  // state stores no pids — true for every value-indexed object here except
  // n-PAC, whose label words are pid-derived. Used by the model checker's
  // symmetry reduction (sim/symmetry.h); must satisfy
  // rename(apply(s, op)) == apply(rename(s), rename(op)) outcome-wise, and
  // renaming by g and then by h must equal renaming by h∘g.
  virtual void rename_pids(std::span<const int> perm,
                           std::vector<std::int64_t>* state) const {
    (void)perm;
    (void)state;
  }

  // True iff rename_pids is a real rewrite (the state stores pids). Paired
  // with rename_pids: types overriding one must override the other. The
  // canonical search renames and compares only the objects for which this
  // is true; the oracle cross-check in tests/sim/symmetry_test.cc catches a
  // violated pairing for every tested type.
  virtual bool renames_pids() const { return false; }

  // Diagnostics.
  virtual std::string operation_to_string(const Operation& op) const;
  virtual std::string state_to_string(
      std::span<const std::int64_t> state) const;

  // Convenience: apply an operation that must be deterministic at this
  // (state, op) — i.e. produce exactly one outcome — and return it.
  Outcome apply_unique(std::span<const std::int64_t> state,
                       const Operation& op) const;
};

}  // namespace lbsa::spec

#endif  // LBSA_SPEC_OBJECT_TYPE_H_
