#include "protocols/mutants.h"

#include <string>

#include "base/check.h"
#include "protocols/one_shot.h"
#include "spec/consensus_type.h"
#include "spec/nm_pac_type.h"

namespace lbsa::protocols {
namespace {

// locals layout shared with PacPortDacProtocol: [input, temp].
constexpr std::int64_t kInput = 0;
constexpr std::int64_t kTemp = 1;

const char* bug_name(MutantDacProtocol::Bug bug) {
  return bug == MutantDacProtocol::Bug::kNoAdopt ? "no-adopt" : "wrong-abort";
}

std::string mutant_dac_name(MutantDacProtocol::Bug bug, size_t n, int m) {
  std::string name = "mutant-DAC-" + std::string(bug_name(bug)) + "-";
  if (m >= 1) {
    name += "(" + std::to_string(n) + "," + std::to_string(m) + ")-PAC";
  } else {
    name += std::to_string(n);
  }
  return name;
}

std::shared_ptr<const spec::ObjectType> mutant_dac_object(size_t n, int m) {
  if (m >= 1) {
    return std::make_shared<spec::NmPacType>(static_cast<int>(n), m);
  }
  return std::make_shared<spec::PacType>(static_cast<int>(n));
}

}  // namespace

MutantDacProtocol::MutantDacProtocol(std::vector<Value> inputs, Bug bug,
                                     int distinguished_pid)
    : MutantDacProtocol(std::move(inputs), 0, bug, distinguished_pid) {}

MutantDacProtocol::MutantDacProtocol(std::vector<Value> inputs, int m, Bug bug,
                                     int distinguished_pid)
    : ProtocolBase(mutant_dac_name(bug, inputs.size(), m),
                   static_cast<int>(inputs.size()),
                   {mutant_dac_object(inputs.size(), m)}),
      inputs_(std::move(inputs)),
      bug_(bug),
      distinguished_pid_(distinguished_pid),
      m_(m) {
  LBSA_CHECK(inputs_.size() >= 2);
  LBSA_CHECK(m_ >= 0);
  LBSA_CHECK(distinguished_pid_ >= 0 &&
             distinguished_pid_ < static_cast<int>(inputs_.size()));
  for (Value v : inputs_) LBSA_CHECK(is_ordinary(v));
}

std::vector<std::int64_t> MutantDacProtocol::initial_locals(int pid) const {
  return {inputs_[static_cast<size_t>(pid)], kNil};
}

sim::SymmetrySpec MutantDacProtocol::symmetry() const {
  return sim::SymmetrySpec::by_value(inputs_, {distinguished_pid_});
}

sim::Action MutantDacProtocol::next_action(
    int pid, const sim::ProcessState& state) const {
  const std::int64_t label = pid + 1;
  switch (state.pc) {
    case 0:
      return sim::Action::invoke(
          0, m_ >= 1
                 ? spec::make_propose_p(state.locals[kInput], label)
                 : spec::make_propose_labeled(state.locals[kInput], label));
    case 1:
      return sim::Action::invoke(0, m_ >= 1 ? spec::make_decide_p(label)
                                            : spec::make_decide_labeled(label));
    case 2: {
      const Value temp = state.locals[kTemp];
      if (temp != kBottom) return sim::Action::decide(temp);
      if (pid == distinguished_pid_) return sim::Action::abort();
      // The injected bugs: a correct q would loop back and adopt.
      if (bug_ == Bug::kNoAdopt) {
        return sim::Action::decide(state.locals[kInput]);
      }
      return sim::Action::abort();
    }
    default:
      LBSA_CHECK_MSG(false, "invalid pc");
      return sim::Action::abort();
  }
}

void MutantDacProtocol::on_response(int /*pid*/, sim::ProcessState* state,
                                    Value response) const {
  switch (state->pc) {
    case 0:
      LBSA_CHECK(response == kDone);
      state->pc = 1;
      return;
    case 1:
      state->locals[kTemp] = response;
      state->pc = 2;  // unconditionally terminal — no adopt retry loop
      return;
    default:
      LBSA_CHECK_MSG(false, "response delivered at a local step");
  }
}

namespace {

// Consensus via one n-consensus object, deciding response + 1.
class OffByOneConsensusProtocol final : public sim::ProtocolBase {
 public:
  explicit OffByOneConsensusProtocol(std::vector<Value> inputs)
      : ProtocolBase("mutant-consensus-off-by-one-" +
                         std::to_string(inputs.size()),
                     static_cast<int>(inputs.size()),
                     {std::make_shared<spec::NConsensusType>(
                         static_cast<int>(inputs.size()))}),
        inputs_(std::move(inputs)) {
    LBSA_CHECK(inputs_.size() >= 1);
    for (Value v : inputs_) {
      LBSA_CHECK(is_ordinary(v));
      // The bug decides winner + 1; keep inputs spaced so the decided value
      // is genuinely never-proposed (otherwise validity could pass).
      for (Value w : inputs_) LBSA_CHECK(v + 1 != w);
    }
  }

  std::vector<std::int64_t> initial_locals(int pid) const override {
    return {inputs_[static_cast<size_t>(pid)], kNil};
  }

  sim::Action next_action(int /*pid*/,
                          const sim::ProcessState& state) const override {
    if (state.pc == 0) {
      return sim::Action::invoke(0, spec::make_propose(state.locals[0]));
    }
    return sim::Action::decide(state.locals[1]);
  }

  void on_response(int /*pid*/, sim::ProcessState* state,
                   Value response) const override {
    LBSA_CHECK(state->pc == 0);
    state->locals[1] = response + 1;  // the injected validity bug
    state->pc = 1;
  }

  sim::SymmetrySpec symmetry() const override {
    return sim::SymmetrySpec::by_value(inputs_);
  }

 private:
  std::vector<Value> inputs_;
};

// One-shot propose over a k=3 SA object masquerading as 2-SA.
class OverclaimedTwoSaProtocol final : public sim::ProtocolBase {
 public:
  explicit OverclaimedTwoSaProtocol(std::vector<Value> inputs)
      : ProtocolBase("mutant-2sa-admits-3-" + std::to_string(inputs.size()),
                     static_cast<int>(inputs.size()),
                     {std::make_shared<spec::KsaType>(spec::kUnboundedPorts,
                                                      3)}),
        inputs_(std::move(inputs)) {
    LBSA_CHECK(inputs_.size() >= 3);
    for (Value v : inputs_) LBSA_CHECK(is_ordinary(v));
  }

  std::vector<std::int64_t> initial_locals(int pid) const override {
    return {inputs_[static_cast<size_t>(pid)], kNil};
  }

  sim::Action next_action(int /*pid*/,
                          const sim::ProcessState& state) const override {
    if (state.pc == 0) {
      return sim::Action::invoke(0, spec::make_propose(state.locals[0]));
    }
    return sim::Action::decide(state.locals[1]);
  }

  void on_response(int /*pid*/, sim::ProcessState* state,
                   Value response) const override {
    LBSA_CHECK(state->pc == 0);
    state->locals[1] = response;
    state->pc = 1;
  }

  sim::SymmetrySpec symmetry() const override {
    return sim::SymmetrySpec::by_value(inputs_);
  }

 private:
  std::vector<Value> inputs_;
};

}  // namespace

OverclaimedNmPacType::OverclaimedNmPacType(int n, int m)
    : pac_(n), ksa_(spec::kUnboundedPorts, m + 1), m_(m) {
  LBSA_CHECK(m >= 1);
}

std::string OverclaimedNmPacType::name() const {
  return "overclaimed-(" + std::to_string(n()) + "," + std::to_string(m_) +
         ")-PAC";
}

std::vector<std::int64_t> OverclaimedNmPacType::initial_state() const {
  std::vector<std::int64_t> state = pac_.initial_state();
  const std::vector<std::int64_t> ksa = ksa_.initial_state();
  state.insert(state.end(), ksa.begin(), ksa.end());
  return state;
}

Status OverclaimedNmPacType::validate(const spec::Operation& op) const {
  switch (op.code) {
    case spec::OpCode::kProposeC:
      return ksa_.validate(spec::make_propose(op.arg0));
    case spec::OpCode::kProposeP:
      return pac_.validate(spec::make_propose_labeled(op.arg0, op.arg1));
    case spec::OpCode::kDecideP:
      return pac_.validate(spec::make_decide_labeled(op.arg0));
    default:
      return invalid_argument(
          "(n,m)-PAC accepts only PROPOSEC / PROPOSEP / DECIDEP");
  }
}

void OverclaimedNmPacType::apply(std::span<const std::int64_t> state,
                                 const spec::Operation& op,
                                 std::vector<spec::Outcome>* outcomes) const {
  const size_t pac_size = spec::PacType::state_size(pac_.n());
  LBSA_CHECK(state.size() == pac_size + ksa_.initial_state().size());

  std::vector<spec::Outcome> sub;
  if (op.code == spec::OpCode::kProposeC) {
    // The bug: the C port answers from an (m+1)-SA set, so sub may hold
    // several outcomes (one per distinct member) instead of one winner.
    ksa_.apply(state.subspan(pac_size), spec::make_propose(op.arg0), &sub);
  } else if (op.code == spec::OpCode::kProposeP) {
    pac_.apply(state.subspan(0, pac_size),
               spec::make_propose_labeled(op.arg0, op.arg1), &sub);
  } else {
    LBSA_CHECK(op.code == spec::OpCode::kDecideP);
    pac_.apply(state.subspan(0, pac_size),
               spec::make_decide_labeled(op.arg0), &sub);
  }

  for (spec::Outcome& o : sub) {
    std::vector<std::int64_t> next(state.begin(), state.end());
    if (op.code == spec::OpCode::kProposeC) {
      std::copy(o.next_state.begin(), o.next_state.end(),
                next.begin() + static_cast<std::ptrdiff_t>(pac_size));
    } else {
      std::copy(o.next_state.begin(), o.next_state.end(), next.begin());
    }
    outcomes->push_back(spec::Outcome{o.response, std::move(next)});
  }
}

void OverclaimedNmPacType::rename_pids(std::span<const int> perm,
                                       std::vector<std::int64_t>* state) const {
  const size_t pac_size = spec::PacType::state_size(pac_.n());
  LBSA_CHECK(state->size() >= pac_size);
  LBSA_CHECK(static_cast<int>(perm.size()) <= pac_.n());
  pac_.rename_state(perm, std::span<std::int64_t>(*state).first(pac_size));
}

std::string OverclaimedNmPacType::state_to_string(
    std::span<const std::int64_t> state) const {
  const size_t pac_size = spec::PacType::state_size(pac_.n());
  return "{P=" + pac_.state_to_string(state.subspan(0, pac_size)) +
         ", C=" + ksa_.state_to_string(state.subspan(pac_size)) + "}";
}

std::shared_ptr<const sim::Protocol> make_overclaimed_consensus_from_nm_pac(
    int n, int m, const std::vector<Value>& inputs) {
  LBSA_CHECK(static_cast<int>(inputs.size()) <= m);
  std::vector<spec::Operation> ops;
  for (Value v : inputs) ops.push_back(spec::make_propose_c(v));
  return std::make_shared<OneShotProposeProtocol>(
      "mutant-consensus-from-overclaimed-(" + std::to_string(n) + "," +
          std::to_string(m) + ")-PAC",
      std::make_shared<OverclaimedNmPacType>(n, m), std::move(ops));
}

std::shared_ptr<const sim::Protocol> make_overclaimed_two_sa(
    const std::vector<Value>& inputs) {
  return std::make_shared<OverclaimedTwoSaProtocol>(inputs);
}

std::shared_ptr<const sim::Protocol> make_off_by_one_consensus(
    const std::vector<Value>& inputs) {
  return std::make_shared<OffByOneConsensusProtocol>(inputs);
}

}  // namespace lbsa::protocols
