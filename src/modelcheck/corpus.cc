#include "modelcheck/corpus.h"

#include <charconv>
#include <functional>
#include <utility>

#include "protocols/ben_or.h"
#include "protocols/consensus_from_nm_pac.h"
#include "protocols/dac_from_nm_pac.h"
#include "protocols/dac_from_pac.h"
#include "protocols/group_ksa.h"
#include "protocols/mutants.h"
#include "protocols/one_shot.h"
#include "protocols/straw_dac.h"
#include "sim/trace.h"

namespace lbsa::modelcheck {
namespace {

std::vector<Value> iota_inputs(int n, Value base = 100) {
  std::vector<Value> inputs;
  for (int i = 0; i < n; ++i) inputs.push_back(base + 100 * i);
  return inputs;
}

NamedTask k_agreement_task(std::string name, std::string description,
                           std::shared_ptr<const sim::Protocol> protocol,
                           int k, std::vector<Value> inputs,
                           bool expect_violation) {
  NamedTask task;
  task.name = std::move(name);
  task.description = std::move(description);
  task.protocol = std::move(protocol);
  task.judge = k_agreement_safety(k, inputs);
  task.k = k;
  task.distinguished_pid = -1;
  task.inputs = std::move(inputs);
  task.expect_violation = expect_violation;
  return task;
}

NamedTask dac_task(std::string name, std::string description,
                   std::shared_ptr<const sim::Protocol> protocol,
                   int distinguished_pid, std::vector<Value> inputs,
                   bool expect_violation) {
  NamedTask task;
  task.name = std::move(name);
  task.description = std::move(description);
  task.protocol = std::move(protocol);
  task.judge = dac_safety(distinguished_pid, inputs);
  task.k = 1;
  task.distinguished_pid = distinguished_pid;
  task.inputs = std::move(inputs);
  task.expect_violation = expect_violation;
  return task;
}

struct RegistryEntry {
  const char* name;
  const char* description;
  std::function<NamedTask()> make;
};

NamedTask make_straw_dac(int n) {
  const auto inputs = iota_inputs(n);
  return dac_task(
      "strawdac" + std::to_string(n),
      "agreement-violating straw-man DAC (2-SA fallback), " +
          std::to_string(n) + " processes",
      std::make_shared<protocols::StrawDacFallbackProtocol>(inputs), 0,
      inputs, /*expect_violation=*/true);
}

const RegistryEntry kRegistry[] = {
    // Correct protocols — fuzz targets that must stay clean.
    {"dac3", "Algorithm 2: 3-DAC from one 3-PAC",
     [] {
       const auto inputs = iota_inputs(3);
       return dac_task(
           "dac3", "Algorithm 2: 3-DAC from one 3-PAC",
           std::make_shared<protocols::DacFromPacProtocol>(inputs), 0,
           inputs, false);
     }},
    {"dac5",
     "Algorithm 2: 5-DAC from one 5-PAC (parallel-engine bench workload)",
     [] {
       const auto inputs = iota_inputs(5);
       return dac_task(
           "dac5", "Algorithm 2: 5-DAC from one 5-PAC",
           std::make_shared<protocols::DacFromPacProtocol>(inputs), 0,
           inputs, false);
     }},
    {"dac6",
     "Algorithm 2: 6-DAC from one 6-PAC (largest exhaustive instance; "
     "seconds of wall clock)",
     [] {
       const auto inputs = iota_inputs(6);
       return dac_task(
           "dac6", "Algorithm 2: 6-DAC from one 6-PAC",
           std::make_shared<protocols::DacFromPacProtocol>(inputs), 0,
           inputs, false);
     }},
    {"consensus5",
     "consensus among 5 via one 5-consensus object (parallel-engine bench "
     "workload)",
     [] {
       const auto inputs = iota_inputs(5);
       return k_agreement_task(
           "consensus5",
           "consensus among 5 via one 5-consensus object",
           protocols::make_consensus_via_n_consensus(inputs), 1, inputs,
           false);
     }},
    {"groupksa", "3-set agreement, 3 groups of 4 (12 processes)",
     [] {
       const auto inputs = iota_inputs(12);
       return k_agreement_task(
           "groupksa", "3-set agreement, 3 groups of 4 (12 processes)",
           std::make_shared<protocols::GroupKsaProtocol>(3, 4, inputs), 3,
           inputs, false);
     }},
    {"twosa4", "2-set agreement among 4 via one strong 2-SA",
     [] {
       const auto inputs = iota_inputs(4);
       return k_agreement_task(
           "twosa4", "2-set agreement among 4 via one strong 2-SA",
           protocols::make_ksa_via_two_sa(inputs), 2, inputs, false);
     }},
    {"benor", "Ben-Or binary consensus, 5 processes, safety half",
     [] {
       const std::vector<Value> inputs{0, 1, 0, 1, 1};
       return k_agreement_task(
           "benor", "Ben-Or binary consensus, 5 processes, safety half",
           std::make_shared<protocols::BenOrProtocol>(inputs, 40), 1, inputs,
           false);
     }},
    // The (n,m)-PAC ports of the hierarchy sweep (core/hierarchy_sweep.h):
    // the consensus port solving m-consensus and the PAC ports solving
    // n-DAC, both of which must stay clean under fuzzing.
    {"consensus-from-nmpac42",
     "2-consensus over the C port of a (4,2)-PAC (Theorem 5.3)",
     [] {
       const auto inputs = iota_inputs(2);
       return k_agreement_task(
           "consensus-from-nmpac42",
           "2-consensus over the C port of a (4,2)-PAC (Theorem 5.3)",
           std::make_shared<protocols::ConsensusFromNmPacProtocol>(4, 2,
                                                                   inputs),
           1, inputs, false);
     }},
    {"dac-from-nmpac32",
     "3-DAC over the PAC ports of a (3,2)-PAC (Observation 5.1(b))",
     [] {
       const auto inputs = iota_inputs(3);
       return dac_task(
           "dac-from-nmpac32",
           "3-DAC over the PAC ports of a (3,2)-PAC (Observation 5.1(b))",
           std::make_shared<protocols::DacFromNmPacProtocol>(inputs, 2, 0),
           0, inputs, false);
     }},
    // Symmetric instances — equal inputs make the declared symmetry groups
    // non-trivial, so these are the reduction layer's primary subjects (the
    // "-sym" suffix marks them for the cross-validation and bench sweeps).
    {"dac3-sym",
     "Algorithm 2: 3-DAC from one 3-PAC, equal inputs (orbit {q1,q2})",
     [] {
       const std::vector<Value> inputs{100, 100, 100};
       return dac_task(
           "dac3-sym",
           "Algorithm 2: 3-DAC from one 3-PAC, equal inputs (orbit {q1,q2})",
           std::make_shared<protocols::DacFromPacProtocol>(inputs), 0,
           inputs, false);
     }},
    {"dac4-sym",
     "Algorithm 2: 4-DAC from one 4-PAC, equal inputs (orbit {q1,q2,q3})",
     [] {
       const std::vector<Value> inputs{100, 100, 100, 100};
       return dac_task(
           "dac4-sym",
           "Algorithm 2: 4-DAC from one 4-PAC, equal inputs (orbit "
           "{q1,q2,q3})",
           std::make_shared<protocols::DacFromPacProtocol>(inputs), 0,
           inputs, false);
     }},
    {"dac5-sym",
     "Algorithm 2: 5-DAC from one 5-PAC, equal inputs (orbit {q1..q4})",
     [] {
       const std::vector<Value> inputs{100, 100, 100, 100, 100};
       return dac_task(
           "dac5-sym",
           "Algorithm 2: 5-DAC from one 5-PAC, equal inputs (orbit "
           "{q1..q4})",
           std::make_shared<protocols::DacFromPacProtocol>(inputs), 0,
           inputs, false);
     }},
    {"consensus4-sym",
     "consensus among 4 via one 4-consensus object, equal inputs (full S_4)",
     [] {
       const std::vector<Value> inputs{100, 100, 100, 100};
       return k_agreement_task(
           "consensus4-sym",
           "consensus among 4 via one 4-consensus object, equal inputs "
           "(full S_4)",
           protocols::make_consensus_via_n_consensus(inputs), 1, inputs,
           false);
     }},
    // Broken protocols — violation generators for the corpus.
    {"strawdac3", "straw-man DAC, 3 processes",
     [] { return make_straw_dac(3); }},
    {"strawdac4", "straw-man DAC, 4 processes",
     [] { return make_straw_dac(4); }},
    {"strawdac5", "straw-man DAC, 5 processes",
     [] { return make_straw_dac(5); }},
    {"mutant-dac-no-adopt3", "DAC mutant: adopt phase dropped (agreement)",
     [] {
       const auto inputs = iota_inputs(3);
       return dac_task(
           "mutant-dac-no-adopt3",
           "DAC mutant: adopt phase dropped (agreement)",
           std::make_shared<protocols::MutantDacProtocol>(
               inputs, protocols::MutantDacProtocol::Bug::kNoAdopt),
           0, inputs, true);
     }},
    {"mutant-dac-wrong-abort3",
     "DAC mutant: non-distinguished abort (only-p-aborts)",
     [] {
       const auto inputs = iota_inputs(3);
       return dac_task(
           "mutant-dac-wrong-abort3",
           "DAC mutant: non-distinguished abort (only-p-aborts)",
           std::make_shared<protocols::MutantDacProtocol>(
               inputs, protocols::MutantDacProtocol::Bug::kWrongAbort),
           0, inputs, true);
     }},
    {"mutant-dac-no-adopt3-sym",
     "no-adopt DAC mutant, inputs {100,200,200} (orbit {q1,q2}, agreement)",
     [] {
       // Equal q inputs keep the orbit non-trivial while the distinct p
       // input keeps the dropped-adopt bug observable (a q deciding its own
       // 200 against a decided 100).
       const std::vector<Value> inputs{100, 200, 200};
       return dac_task(
           "mutant-dac-no-adopt3-sym",
           "no-adopt DAC mutant, inputs {100,200,200} (orbit {q1,q2}, "
           "agreement)",
           std::make_shared<protocols::MutantDacProtocol>(
               inputs, protocols::MutantDacProtocol::Bug::kNoAdopt),
           0, inputs, true);
     }},
    {"mutant-dac-wrong-abort3-sym",
     "wrong-abort DAC mutant, inputs {100,200,200} (orbit {q1,q2})",
     [] {
       const std::vector<Value> inputs{100, 200, 200};
       return dac_task(
           "mutant-dac-wrong-abort3-sym",
           "wrong-abort DAC mutant, inputs {100,200,200} (orbit {q1,q2})",
           std::make_shared<protocols::MutantDacProtocol>(
               inputs, protocols::MutantDacProtocol::Bug::kWrongAbort),
           0, inputs, true);
     }},
    {"mutant-2sa4", "2-SA mutant: backing object admits 3 values (agreement)",
     [] {
       const auto inputs = iota_inputs(4);
       return k_agreement_task(
           "mutant-2sa4",
           "2-SA mutant: backing object admits 3 values (agreement)",
           protocols::make_overclaimed_two_sa(inputs), 2, inputs, true);
     }},
    {"mutant-consensus-from-nmpac22",
     "consensus port of an overclaimed (2,2)-PAC: C port backed by 3-SA "
     "(agreement)",
     [] {
       const auto inputs = iota_inputs(2);
       return k_agreement_task(
           "mutant-consensus-from-nmpac22",
           "consensus port of an overclaimed (2,2)-PAC: C port backed by "
           "3-SA (agreement)",
           protocols::make_overclaimed_consensus_from_nm_pac(2, 2, inputs),
           1, inputs, true);
     }},
    {"mutant-dac-from-nmpac21",
     "no-adopt DAC mutant over the PAC ports of a (2,1)-PAC (agreement)",
     [] {
       const auto inputs = iota_inputs(2);
       return dac_task(
           "mutant-dac-from-nmpac21",
           "no-adopt DAC mutant over the PAC ports of a (2,1)-PAC "
           "(agreement)",
           std::make_shared<protocols::MutantDacProtocol>(
               inputs, 1, protocols::MutantDacProtocol::Bug::kNoAdopt),
           0, inputs, true);
     }},
    {"mutant-consensus-off-by-one3",
     "consensus mutant: decides winner + 1 (validity)",
     [] {
       const auto inputs = iota_inputs(3);
       return k_agreement_task(
           "mutant-consensus-off-by-one3",
           "consensus mutant: decides winner + 1 (validity)",
           protocols::make_off_by_one_consensus(inputs), 1, inputs, true);
     }},
};

}  // namespace

StatusOr<NamedTask> make_named_task(const std::string& name) {
  for (const RegistryEntry& entry : kRegistry) {
    if (name == entry.name) return entry.make();
  }
  std::string known;
  for (const RegistryEntry& entry : kRegistry) {
    if (!known.empty()) known += ", ";
    known += entry.name;
  }
  return not_found("unknown task '" + name + "' (known: " + known + ")");
}

std::vector<std::string> named_task_names() {
  std::vector<std::string> names;
  for (const RegistryEntry& entry : kRegistry) names.emplace_back(entry.name);
  return names;
}

FuzzReport fuzz_named_task(const NamedTask& task, const FuzzOptions& options) {
  return fuzz_safety(task.protocol, task.judge, options);
}

std::string corpus_case_to_string(const CorpusCase& c) {
  std::string out = "# lbsa fuzz corpus v1\n";
  out += "# task: " + c.task + "\n";
  out += "# property: " + c.property + "\n";
  if (!c.detail.empty()) out += "# detail: " + c.detail + "\n";
  if (!c.engine.empty()) {
    out += "# seed: " + std::to_string(c.seed) + "\n";
    out += "# engine: " + c.engine + "\n";
  }
  out += sim::schedule_to_string(c.schedule);
  return out;
}

StatusOr<CorpusCase> parse_corpus_case(const std::string& text) {
  CorpusCase c;
  // Header scan: `# key: value` comment lines.
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    auto header_value = [&line](const char* key) -> std::string {
      const std::string prefix = std::string("# ") + key + ": ";
      if (line.rfind(prefix, 0) != 0) return "";
      return line.substr(prefix.size());
    };
    if (auto v = header_value("task"); !v.empty()) c.task = v;
    if (auto v = header_value("property"); !v.empty()) c.property = v;
    if (auto v = header_value("detail"); !v.empty()) c.detail = v;
    if (auto v = header_value("seed"); !v.empty()) {
      const char* end = v.data() + v.size();
      const auto [ptr, ec] = std::from_chars(v.data(), end, c.seed);
      if (ec != std::errc() || ptr != end) {
        return invalid_argument("corpus file: malformed '# seed:' header '" +
                                v + "'");
      }
    }
    if (auto v = header_value("engine"); !v.empty()) c.engine = v;
  }
  if (c.task.empty()) {
    return invalid_argument("corpus file: missing '# task:' header");
  }
  if (c.property.empty()) {
    return invalid_argument("corpus file: missing '# property:' header");
  }
  auto schedule = sim::parse_schedule(text);
  if (!schedule.is_ok()) return schedule.status();
  if (schedule.value().empty()) {
    return invalid_argument("corpus file: empty schedule");
  }
  c.schedule = std::move(schedule.value());
  return c;
}

Status replay_corpus_case(const CorpusCase& c) {
  auto task = make_named_task(c.task);
  if (!task.is_ok()) return task.status();
  auto replayed = sim::replay_schedule(task.value().protocol, c.schedule);
  if (!replayed.is_ok()) return replayed.status();
  const auto [property, detail] =
      task.value().judge(replayed.value().config());
  if (property != c.property) {
    return failed_precondition(
        "corpus case for task '" + c.task + "' expected a '" + c.property +
        "' violation on replay, got " +
        (property.empty() ? std::string("a clean run")
                          : "'" + property + "' (" + detail + ")"));
  }
  return Status::ok();
}

}  // namespace lbsa::modelcheck
