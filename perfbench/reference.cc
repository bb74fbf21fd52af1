// Hand-written reference verdicts. The corpus rows were recorded from an
// unreduced check_*_task run of each task; a drift in any field is a
// verdict error, not a new baseline.
#include <fstream>
#include <set>
#include <sstream>

#include "bench.h"
#include "obs/json.h"

namespace lbsa::perfbench {

std::vector<CorpusExpectation> corpus_expectations() {
  return {
      // Correct protocols: clean.
      {"dac3", false, "", 441, 1004},
      {"dac5", false, "", 31621, 123218},
      {"dac6", false, "", 250665, 1179441},
      {"consensus5", false, "", 811, 2570},
      {"twosa4", false, "", 2409, 6296},
      {"consensus-from-nmpac42", false, "", 13, 16},
      {"dac-from-nmpac32", false, "", 441, 1004},
      {"dac3-sym", false, "", 357, 848},
      {"dac4-sym", false, "", 2717, 8823},
      {"dac5-sym", false, "", 19221, 78834},
      {"consensus4-sym", false, "", 81, 216},
      // Straw men and mutants: broken.
      {"strawdac3", true, "agreement", 103, 186},
      {"strawdac4", true, "agreement", 441, 1040},
      {"strawdac5", true, "agreement", 1611, 4730},
      {"mutant-dac-no-adopt3", true, "agreement", 375, 750},
      {"mutant-dac-wrong-abort3", true, "only-p-aborts", 375, 750},
      {"mutant-dac-no-adopt3-sym", true, "agreement", 347, 702},
      {"mutant-dac-wrong-abort3-sym", true, "only-p-aborts", 347, 702},
      {"mutant-2sa4", true, "agreement", 8169, 19736},
      {"mutant-consensus-from-nmpac22", true, "agreement", 21, 28},
      {"mutant-dac-from-nmpac21", true, "agreement", 41, 54},
      {"mutant-consensus-off-by-one3", true, "validity", 55, 102},
  };
}

std::string compare_corpus_verdict(const CorpusExpectation& want,
                                   const modelcheck::TaskReport& report) {
  std::set<std::string> seen;
  for (const modelcheck::PropertyViolation& v : report.violations) {
    seen.insert(v.property);
  }
  std::string properties;
  for (const std::string& p : seen) {
    if (!properties.empty()) properties += ",";
    properties += p;
  }
  std::ostringstream diff;
  if (report.partial) diff << " partial graph;";
  if (report.ok() == want.violated) {
    diff << " expected " << (want.violated ? "violated" : "clean") << ", got "
         << (report.ok() ? "clean" : "violated") << ";";
  }
  if (properties != want.properties) {
    diff << " properties {" << properties << "} != {" << want.properties
         << "};";
  }
  if (report.node_count != want.nodes ||
      report.transition_count != want.transitions) {
    diff << " graph " << report.node_count << "/" << report.transition_count
         << " != " << want.nodes << "/" << want.transitions << ";";
  }
  const std::string out = diff.str();
  return out.empty() ? out : std::string(want.task) + ":" + out;
}

StatusOr<std::string> load_hierarchy_rows_reference(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return not_found("cannot read " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  while (!text.empty() && (text.back() == '\n' || text.back() == ' ')) {
    text.pop_back();
  }
  StatusOr<obs::JsonValue> doc = obs::parse_json(text);
  if (!doc.is_ok()) return invalid_argument(path + ": " + doc.status().to_string());
  const auto& members = doc.value().members;
  if (!doc.value().is_object() || members.empty() ||
      members.back().first != "provenance") {
    return invalid_argument(path + ": provenance is not the last member");
  }
  // The artifact is the rows document with ,"provenance":{...} spliced in
  // before its closing brace; cut it back out byte-exactly.
  const std::size_t cut = text.rfind(",\"provenance\":");
  if (cut == std::string::npos) {
    return invalid_argument(path + ": no provenance member");
  }
  std::string rows = text.substr(0, cut) + "}";
  StatusOr<obs::JsonValue> rows_doc = obs::parse_json(rows);
  if (!rows_doc.is_ok()) {
    return invalid_argument(path + ": rows document does not parse: " +
                            rows_doc.status().to_string());
  }
  return rows;
}

}  // namespace lbsa::perfbench
