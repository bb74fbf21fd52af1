#include "spec/nm_pac_type.h"

#include <utility>

#include "base/check.h"

namespace lbsa::spec {
namespace {

// Rewrites an (n,m)-PAC opcode into the component object's opcode.
Operation to_component_op(const Operation& op) {
  switch (op.code) {
    case OpCode::kProposeC:
      return Operation{OpCode::kPropose, op.arg0, kNil};
    case OpCode::kProposeP:
      return Operation{OpCode::kProposeLabeled, op.arg0, op.arg1};
    case OpCode::kDecideP:
      return Operation{OpCode::kDecideLabeled, op.arg0, kNil};
    default:
      LBSA_CHECK_MSG(false, "not an (n,m)-PAC opcode");
      return op;
  }
}

}  // namespace

NmPacType::NmPacType(int n, int m) : pac_(n), consensus_(m) {}

std::string NmPacType::name() const {
  return "(" + std::to_string(n()) + "," + std::to_string(m()) + ")-PAC";
}

std::vector<std::int64_t> NmPacType::initial_state() const {
  std::vector<std::int64_t> state = pac_.initial_state();
  const std::vector<std::int64_t> cons = consensus_.initial_state();
  state.insert(state.end(), cons.begin(), cons.end());
  return state;
}

Status NmPacType::validate(const Operation& op) const {
  switch (op.code) {
    case OpCode::kProposeC:
      return consensus_.validate(to_component_op(op));
    case OpCode::kProposeP:
    case OpCode::kDecideP:
      return pac_.validate(to_component_op(op));
    default:
      return invalid_argument(
          "(n,m)-PAC accepts only PROPOSEC / PROPOSEP / DECIDEP");
  }
}

void NmPacType::apply(std::span<const std::int64_t> state, const Operation& op,
                      std::vector<Outcome>* outcomes) const {
  const size_t pac_size = PacType::state_size(pac_.n());
  LBSA_CHECK(state.size() == pac_size + 2);
  const Operation component_op = to_component_op(op);

  // Copy the composite state once and step the component on its part in
  // place; both components are deterministic, so there is one outcome.
  std::vector<std::int64_t> next(state.begin(), state.end());
  const std::span<std::int64_t> parts(next);
  const Value response =
      op.code == OpCode::kProposeC
          ? consensus_.step(component_op, parts.subspan(pac_size))
          : pac_.step(component_op, parts.first(pac_size));
  outcomes->push_back(Outcome{response, std::move(next)});
}

void NmPacType::rename_pids(std::span<const int> perm,
                            std::vector<std::int64_t>* state) const {
  const size_t pac_size = PacType::state_size(pac_.n());
  LBSA_CHECK(state->size() == pac_size + 2);
  LBSA_CHECK(static_cast<int>(perm.size()) <= pac_.n());
  pac_.rename_state(perm, std::span<std::int64_t>(*state).first(pac_size));
}

std::string NmPacType::state_to_string(
    std::span<const std::int64_t> state) const {
  return "{P=" + pac_.state_to_string(pac_part(state)) +
         ", C=" + consensus_.state_to_string(consensus_part(state)) + "}";
}

}  // namespace lbsa::spec
