// The Protocol interface: a distributed algorithm in the paper's model.
//
// A protocol fixes (a) a finite set of shared objects (by sequential
// specification) and (b), for each process, a deterministic automaton over
// (pc, locals). The runtime contract per step of process pid:
//
//   1. action = next_action(pid, state)        // pure function of state
//   2. if action is kInvoke: the runtime applies action.op to the chosen
//      object (picking one outcome if the object is nondeterministic) and
//      calls on_response(pid, &state, response) to advance the automaton;
//   3. if action is kDecide / kAbort: the runtime marks the process
//      terminated (these are local steps; they touch no shared object).
//
// Determinism requirement (the proofs rely on it): next_action must depend
// only on (pid, state), and on_response only on (pid, state, response).
// All nondeterminism in the system lives in the scheduler and in
// nondeterministic objects (the (n,k)-SA family).
#ifndef LBSA_SIM_PROTOCOL_H_
#define LBSA_SIM_PROTOCOL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/action.h"
#include "sim/process_state.h"
#include "sim/symmetry.h"
#include "spec/object_type.h"

namespace lbsa::sim {

class Protocol {
 public:
  virtual ~Protocol() = default;

  virtual std::string name() const = 0;
  virtual int process_count() const = 0;

  // The shared objects this protocol uses; object_index in Action refers
  // into this vector. Object states are instantiated by the runtime from
  // each type's initial_state().
  virtual const std::vector<std::shared_ptr<const spec::ObjectType>>& objects()
      const = 0;

  // Initial local variables of process pid (must embed the input, if any).
  virtual std::vector<std::int64_t> initial_locals(int pid) const = 0;

  // The next step of pid as a pure function of its state. Only called while
  // the process is running.
  virtual Action next_action(int pid, const ProcessState& state) const = 0;

  // Advance the automaton after an invoke step returned `response`. Must not
  // touch status/decision (termination goes through kDecide/kAbort actions).
  virtual void on_response(int pid, ProcessState* state,
                           Value response) const = 0;

  // Which processes are interchangeable under pid renaming (see
  // sim/symmetry.h for the exact contract). The default declares none, which
  // is always sound; protocols that override it enable symmetry reduction in
  // the model checker. Must be a pure function (same spec every call). A
  // renaming moves process states unchanged, so a symmetric protocol keeps
  // pid-derived data (labels, process names) out of its locals, in objects
  // whose spec::ObjectType::rename_pids rewrites it.
  virtual SymmetrySpec symmetry() const {
    return SymmetrySpec::none(process_count());
  }
};

// Convenience base carrying the common plumbing (name, object list, count).
class ProtocolBase : public Protocol {
 public:
  ProtocolBase(std::string name, int process_count,
               std::vector<std::shared_ptr<const spec::ObjectType>> objects)
      : name_(std::move(name)),
        process_count_(process_count),
        objects_(std::move(objects)) {}

  std::string name() const override { return name_; }
  int process_count() const override { return process_count_; }
  const std::vector<std::shared_ptr<const spec::ObjectType>>& objects()
      const override {
    return objects_;
  }

 private:
  std::string name_;
  int process_count_;
  std::vector<std::shared_ptr<const spec::ObjectType>> objects_;
};

}  // namespace lbsa::sim

#endif  // LBSA_SIM_PROTOCOL_H_
