// verdict_digests — prints VERDICTS.json: one row per registry task and
// reduction with the explored graph's size and two 128-bit digests, one of
// the graph in id order and one of the task check's report. A change that
// moves a graph or a verdict changes a row, and the row names the task and
// the reduction.
//
//   ./build/tools/verdict_digests > VERDICTS.json
//   ./build/tools/verdict_digests --engine auto --threads 4 --check VERDICTS.json
//
// The graph digest covers, per node: the configuration's Config::encode()
// words (decoded from the stored key, so the key's representation does not
// enter it), the path flag, depth, parent, parent edge and discovery perm,
// and every edge's (to, pid, kind, to_pid). The report digest covers
// TaskReport::to_string() at max_violations 1000. The graph is explored
// with the options and path flag the task check uses, so the two digests
// describe the same exploration. Graphs and reports are the same for every
// engine and thread count, so the output is too.
//
// --check FILE compares the output with FILE line by line instead of
// printing it, and on a mismatch names the first differing task and
// reduction (exit 1).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/hashing.h"
#include "modelcheck/corpus.h"
#include "modelcheck/explorer.h"
#include "modelcheck/task_check.h"
#include "obs/cli.h"

namespace {

using namespace lbsa;
using modelcheck::Reduction;

constexpr int kMaxViolations = 1000;

// Tasks whose complete graph is out of reach in a test's budget, explored
// instead up to a fixed node budget (a canonical prefix, the same for every
// engine and thread count).
struct Truncated {
  const char* task;
  std::uint64_t max_nodes;
  const char* why;
};
constexpr Truncated kTruncated[] = {
    {"groupksa", 2000, "exceeds the default 5,000,000-node budget"},
    {"benor", 2000, "a complete exploration did not finish in 60 s"},
};

const Truncated* truncation_of(const std::string& task) {
  for (const Truncated& t : kTruncated) {
    if (task == t.task) return &t;
  }
  return nullptr;
}

// A 128-bit streaming digest: two hash_combine lanes with distinct seeds.
class Digest {
 public:
  void add(std::uint64_t v) {
    lo_ = hash_combine(lo_, v);
    hi_ = hash_combine(hi_, v);
  }
  void add_signed(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  // The length, then 8-byte little-endian chunks, the last zero-padded.
  void add_string(const std::string& s) {
    add(s.size());
    for (std::size_t i = 0; i < s.size(); i += 8) {
      std::uint64_t chunk = 0;
      for (std::size_t b = 0; b < 8 && i + b < s.size(); ++b) {
        chunk |= std::uint64_t{static_cast<unsigned char>(s[i + b])} << (8 * b);
      }
      add(chunk);
    }
  }
  std::string hex() const {
    char buf[33];
    std::snprintf(buf, sizeof buf, "%016llx%016llx",
                  static_cast<unsigned long long>(hi_),
                  static_cast<unsigned long long>(lo_));
    return buf;
  }

 private:
  std::uint64_t lo_ = 0x243f6a8885a308d3ULL;
  std::uint64_t hi_ = 0xb7e151628aed2a6bULL;
};

std::string graph_digest(const modelcheck::ConfigGraph& graph) {
  Digest d;
  d.add(graph.node_count());
  sim::Config config;
  std::vector<std::int64_t> words;
  for (std::uint32_t id = 0; id < graph.node_count(); ++id) {
    graph.config_into(id, &config);
    config.encode_into(&words);
    d.add(words.size());
    for (std::int64_t w : words) d.add_signed(w);
    d.add_signed(graph.flag(id));
    d.add(graph.depth(id));
    d.add(graph.parent(id));
    d.add(graph.parent_edge(id));
    const std::span<const std::uint8_t> perm = graph.discovery_perm(id);
    d.add(perm.size());
    for (std::uint8_t p : perm) d.add(p);
    const std::span<const modelcheck::Edge> edges = graph.edges(id);
    d.add(edges.size());
    for (const modelcheck::Edge& e : edges) {
      d.add(e.to);
      d.add_signed(e.pid);
      d.add(static_cast<std::uint64_t>(e.kind));
      d.add(e.to_pid);
    }
  }
  return d.hex();
}

// One VERDICTS.json row, on one line.
std::string row(const modelcheck::NamedTask& task, Reduction reduction,
                modelcheck::ExploreEngine engine, int threads) {
  modelcheck::TaskCheckOptions check;
  check.max_violations = kMaxViolations;
  check.explore.engine = engine;
  check.explore.threads = threads;
  check.explore.reduction = reduction;
  if (const Truncated* t = truncation_of(task.name)) {
    check.explore.max_nodes = t->max_nodes;
    check.explore.allow_truncation = true;
  }

  // The exploration check_dac_task makes: the path flag records whether a
  // process other than the distinguished one has stepped.
  modelcheck::ExploreOptions explore = check.explore;
  modelcheck::Explorer::FlagFn flag_fn;
  if (task.distinguished_pid >= 0) {
    const int p = task.distinguished_pid;
    flag_fn = [p](std::int64_t flag, const sim::Step& step) -> std::int64_t {
      return step.pid != p ? 1 : flag;
    };
    explore.flag_fn_symmetric = true;
  }
  const auto graph =
      modelcheck::Explorer(task.protocol).explore(explore, flag_fn, 0);
  const auto report =
      task.distinguished_pid >= 0
          ? modelcheck::check_dac_task(task.protocol, task.distinguished_pid,
                                       task.inputs, check)
          : modelcheck::check_k_agreement_task(task.protocol, task.k,
                                               task.inputs, check);

  std::string out = "    {\"task\": \"" + task.name + "\", \"reduction\": \"" +
                    modelcheck::reduction_name(reduction) + "\"";
  if (!graph.is_ok()) {
    return out + ", \"error\": \"" + graph.status().to_string() + "\"}";
  }
  const modelcheck::ConfigGraph& g = graph.value();
  out += ", \"nodes\": " + std::to_string(g.node_count()) +
         ", \"transitions\": " + std::to_string(g.transition_count()) +
         ", \"levels\": " + std::to_string(g.levels_completed()) +
         ", \"truncated\": " + (g.truncated() ? "true" : "false") +
         ", \"graph_digest\": \"" + graph_digest(g) + "\"";
  Digest report_digest;
  report_digest.add_string(report.is_ok() ? report.value().to_string()
                                          : report.status().to_string());
  if (report.is_ok()) {
    out += ", \"ok\": ";
    out += report.value().ok() ? "true" : "false";
  } else {
    out += ", \"check_error\": true";
  }
  return out + ", \"report_digest\": \"" + report_digest.hex() + "\"}";
}

std::vector<std::string> generate(modelcheck::ExploreEngine engine,
                                  int threads) {
  std::vector<std::string> lines = {
      "{",
      "  \"lbsa_verdicts_schema\": 1,",
      "  \"tool\": \"verdict_digests\",",
      "  \"report_max_violations\": " + std::to_string(kMaxViolations) + ",",
  };
  std::string truncated = "  \"truncated_tasks\": {";
  for (const Truncated& t : kTruncated) {
    if (&t != &kTruncated[0]) truncated += ", ";
    truncated += "\"" + std::string(t.task) + "\": {\"max_nodes\": " +
                 std::to_string(t.max_nodes) + ", \"why\": \"" + t.why +
                 "\"}";
  }
  lines.push_back(truncated + "},");
  lines.push_back("  \"rows\": [");
  const std::vector<std::string> names = modelcheck::named_task_names();
  constexpr Reduction kReductions[] = {Reduction::kNone, Reduction::kSymmetry,
                                       Reduction::kPor, Reduction::kBoth};
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto task = modelcheck::make_named_task(names[i]);
    if (!task.is_ok()) {
      std::fprintf(stderr, "%s\n", task.status().to_string().c_str());
      std::exit(1);
    }
    for (Reduction reduction : kReductions) {
      const bool last = i + 1 == names.size() && reduction == Reduction::kBoth;
      lines.push_back(row(task.value(), reduction, engine, threads) +
                      (last ? "" : ","));
    }
  }
  lines.push_back("  ]");
  lines.push_back("}");
  return lines;
}

// The "task" and "reduction" a row line names, for a mismatch message.
std::string row_name(const std::string& line) {
  const std::string::size_type at = line.find("\"reduction\"");
  if (line.find("\"task\"") == std::string::npos ||
      at == std::string::npos) {
    return "no row (file structure)";
  }
  auto value_after = [&](std::string::size_type key) {
    const auto open = line.find('"', line.find(':', key)) + 1;
    return line.substr(open, line.find('"', open) - open);
  };
  return "task " + value_after(line.find("\"task\"")) + ", reduction " +
         value_after(at);
}

int check(const std::vector<std::string>& lines, const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
    return 1;
  }
  std::vector<std::string> committed;
  for (std::string line; std::getline(in, line);) committed.push_back(line);
  for (std::size_t i = 0; i < lines.size() || i < committed.size(); ++i) {
    const std::string got = i < lines.size() ? lines[i] : "<end of output>";
    const std::string want =
        i < committed.size() ? committed[i] : "<end of file>";
    if (got == want) continue;
    std::fprintf(stderr,
                 "error: %s differs from the regenerated rows at line %zu "
                 "(%s)\n  committed:   %s\n  regenerated: %s\n",
                 path.c_str(), i + 1,
                 row_name(i < lines.size() ? got : want).c_str(), want.c_str(),
                 got.c_str());
    return 1;
  }
  std::printf("ok: %s matches (%zu lines)\n", path.c_str(), lines.size());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: verdict_digests [--engine auto|serial|parallel] "
               "[--threads N] [--check VERDICTS.json]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  modelcheck::ExploreEngine engine = modelcheck::ExploreEngine::kSerial;
  int threads = 1;
  std::string check_path;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return usage();
    if (!std::strcmp(argv[i], "--engine")) {
      const auto parsed = modelcheck::parse_engine(argv[++i]);
      if (!parsed.is_ok()) {
        std::fprintf(stderr, "%s\n", parsed.status().to_string().c_str());
        return 2;
      }
      engine = parsed.value();
    } else if (!std::strcmp(argv[i], "--threads")) {
      threads = static_cast<int>(obs::parse_count_flag(
          "--threads", argv[++i], 1, modelcheck::kMaxThreads));
    } else if (!std::strcmp(argv[i], "--check")) {
      check_path = argv[++i];
    } else {
      return usage();
    }
  }
  const std::vector<std::string> lines = generate(engine, threads);
  if (!check_path.empty()) return check(lines, check_path);
  for (const std::string& line : lines) std::printf("%s\n", line.c_str());
  return 0;
}
