// hierarchy_sweep_cli — machine-check the (n,m)-PAC consensus-power table
// (core/hierarchy_sweep.h): for every (n, m) in the requested range, verify
// under all schedules that the object's consensus port solves m-consensus
// for every p <= m, that its PAC ports solve n-DAC, and that the verdict
// matches the hierarchy_catalog declaration (Theorems 5.2/5.3,
// Observation 5.1(b)).
//
//   ./hierarchy_sweep_cli [--n-min N] [--n-max N] [--only N,M]
//                         [--engine auto|serial|parallel]
//                         [--threads N] [--max-nodes N]
//                         [--check-reduction none|por|both]
//                         [--rows-json PATH] [--out PATH] [--markdown]
//                         [--metrics-json PATH] [--trace-out PATH]
//
// --rows-json writes the deterministic rows document (byte-identical across
// engines, thread counts, and --check-reduction modes); --out writes the
// full HIERARCHY.json artifact (rows + provenance), schema-checked by
// `report_check hierarchy`. --markdown prints the consensus-power table.
// --only N,M checks a single cell and prints its row document. The obs
// flags match the other tools (shared ObsCli).
//
// Numeric flags (including both halves of --only) parse strictly: a value
// that is not wholly a number in range is a usage error naming the flag.
//
// Exit codes:
//   0  every requested row verified and matches the catalog
//   1  error (exploration failure, cross-check verdict disagreement, I/O)
//   2  usage error
//   3  sweep completed but some row failed verification
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>

#include "core/hierarchy_sweep.h"
#include "modelcheck/explorer.h"
#include "obs/cli.h"
#include "obs/json.h"
#include "obs/report.h"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: hierarchy_sweep_cli [--n-min N] [--n-max N] [--only N,M]\n"
      "                           [--engine auto|serial|parallel]\n"
      "                           [--threads N] [--max-nodes N]\n"
      "                           [--check-reduction none|por|both]\n"
      "                           [--rows-json PATH] [--out PATH] "
      "[--markdown]\n"
      "                           [--metrics-json PATH] [--trace-out PATH]\n");
  return 2;
}

void print_row(const lbsa::core::SweepRow& row) {
  std::printf(
      "(%d,%d)-PAC: level %lld  consensus[p<=%d] %s (%llu nodes, %.2fx)  "
      "dac[%d] %s (%llu nodes, %.2fx)  catalog %s\n",
      row.n, row.m, static_cast<long long>(row.declared_level), row.m,
      row.consensus_ok_all_p ? "ok" : "FAIL",
      static_cast<unsigned long long>(row.consensus.nodes),
      row.consensus.reduction_ratio, row.dac.processes,
      row.dac.ok ? "ok" : "FAIL",
      static_cast<unsigned long long>(row.dac.nodes),
      row.dac.reduction_ratio, row.matches_catalog ? "match" : "MISMATCH");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lbsa;

  core::SweepOptions options;
  options.threads = 1;
  bool only = false;
  int only_n = 0;
  int only_m = 0;
  std::string rows_json_path;
  std::string out_path;
  bool markdown = false;

  obs::ObsCli obs_cli("hierarchy_sweep_cli");
  for (int i = 1; i < argc; ++i) {
    auto next_arg = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs an argument\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (obs_cli.consume(argc, argv, &i)) {
      continue;
    } else if (!std::strcmp(argv[i], "--n-min")) {
      options.n_min = static_cast<int>(
          obs::parse_count_flag("--n-min", next_arg("--n-min"), 0, INT_MAX));
    } else if (!std::strcmp(argv[i], "--n-max")) {
      options.n_max = static_cast<int>(
          obs::parse_count_flag("--n-max", next_arg("--n-max"), 0, INT_MAX));
    } else if (!std::strcmp(argv[i], "--only")) {
      only = true;
      const std::string_view cell = next_arg("--only");
      const std::size_t comma = cell.find(',');
      if (comma == std::string_view::npos) {
        std::fprintf(stderr, "--only needs N,M\n");
        return usage();
      }
      only_n = static_cast<int>(
          obs::parse_count_flag("--only", cell.substr(0, comma), 0, INT_MAX));
      only_m = static_cast<int>(obs::parse_count_flag(
          "--only", cell.substr(comma + 1), 0, INT_MAX));
    } else if (!std::strcmp(argv[i], "--engine")) {
      auto engine = modelcheck::parse_engine(next_arg("--engine"));
      if (!engine.is_ok()) {
        std::fprintf(stderr, "%s\n", engine.status().to_string().c_str());
        return usage();
      }
      options.engine = engine.value();
    } else if (!std::strcmp(argv[i], "--threads")) {
      options.threads = static_cast<int>(obs::parse_count_flag(
          "--threads", next_arg("--threads"), 0, INT_MAX));
    } else if (!std::strcmp(argv[i], "--max-nodes")) {
      options.max_nodes = obs::parse_count_flag(
          "--max-nodes", next_arg("--max-nodes"), 0, UINT64_MAX);
    } else if (!std::strcmp(argv[i], "--check-reduction")) {
      auto reduction = modelcheck::parse_reduction(
          next_arg("--check-reduction"));
      if (!reduction.is_ok()) {
        std::fprintf(stderr, "%s\n", reduction.status().to_string().c_str());
        return usage();
      }
      options.cross_check = reduction.value();
    } else if (!std::strcmp(argv[i], "--rows-json")) {
      rows_json_path = next_arg("--rows-json");
    } else if (!std::strcmp(argv[i], "--out")) {
      out_path = next_arg("--out");
    } else if (!std::strcmp(argv[i], "--markdown")) {
      markdown = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return usage();
    }
  }
  if (options.n_min < 2 || options.n_max < options.n_min) {
    std::fprintf(stderr, "need 2 <= --n-min <= --n-max\n");
    return usage();
  }

  if (only) {
    if (only_n < 2 || only_m < 1 || only_m > only_n) {
      std::fprintf(stderr, "--only needs N >= 2 and 1 <= M <= N\n");
      return usage();
    }
    if (!rows_json_path.empty() || !out_path.empty()) {
      std::fprintf(stderr, "--only cannot be combined with --rows-json/--out "
                           "(artifacts must cover the full grid)\n");
      return usage();
    }
    auto row_or = core::run_hierarchy_row(only_n, only_m, options);
    if (!row_or.is_ok()) {
      std::fprintf(stderr, "%s\n", row_or.status().to_string().c_str());
      return 1;
    }
    print_row(row_or.value());
    obs::RunReport run_report;
    run_report.task = "hierarchy";
    run_report.params = {
        {"n", std::to_string(only_n)},
        {"m", std::to_string(only_m)},
        {"threads", std::to_string(options.threads)},
        {"engine",
         "\"" + std::string(modelcheck::engine_name(options.engine)) + "\""},
        {"max_nodes", std::to_string(options.max_nodes)},
    };
    {
      obs::JsonWriter w;
      w.begin_object();
      w.key("rows");
      w.value_uint(1);
      w.key("all_ok");
      w.value_bool(row_or.value().ok());
      w.end_object();
      run_report.sections.emplace_back("hierarchy", std::move(w).str());
    }
    if (const Status s = obs_cli.finish(&run_report); !s.is_ok()) {
      std::fprintf(stderr, "%s\n", s.to_string().c_str());
      return 1;
    }
    return row_or.value().ok() ? 0 : 3;
  }

  auto result_or = core::run_hierarchy_sweep(options);
  if (!result_or.is_ok()) {
    std::fprintf(stderr, "%s\n", result_or.status().to_string().c_str());
    return 1;
  }
  const core::SweepResult& result = result_or.value();
  for (const core::SweepRow& row : result.rows) print_row(row);

  if (markdown) {
    std::printf("\n%s", core::hierarchy_table_markdown(result).c_str());
  }

  if (!rows_json_path.empty()) {
    const Status s = obs::write_text_file(rows_json_path,
                                          core::hierarchy_rows_json(result));
    if (!s.is_ok()) {
      std::fprintf(stderr, "%s\n", s.to_string().c_str());
      return 1;
    }
  }
  if (!out_path.empty()) {
    core::SweepProvenance provenance;
    provenance.engine = modelcheck::engine_name(options.engine);
    provenance.threads = options.threads;
    provenance.threads_available =
        static_cast<int>(std::thread::hardware_concurrency());
    if (provenance.threads_available < 1) provenance.threads_available = 1;
    const std::string artifact =
        core::hierarchy_artifact_json(result, provenance);
    // Self-check before writing: this binary never leaves an artifact behind
    // that `report_check hierarchy` would reject. (A sweep with failing rows
    // is still written for postmortems — the schema validator rejecting it
    // downstream is the point.)
    if (result.all_ok()) {
      if (const Status s = obs::validate_hierarchy_artifact_json(artifact);
          !s.is_ok()) {
        std::fprintf(stderr, "internal: emitted artifact fails schema: %s\n",
                     s.to_string().c_str());
        return 1;
      }
    }
    if (const Status s = obs::write_text_file(out_path, artifact);
        !s.is_ok()) {
      std::fprintf(stderr, "%s\n", s.to_string().c_str());
      return 1;
    }
  }

  obs::RunReport run_report;
  run_report.task = "hierarchy";
  run_report.params = {
      {"n_min", std::to_string(options.n_min)},
      {"n_max", std::to_string(options.n_max)},
      {"threads", std::to_string(options.threads)},
      {"threads_available",
       std::to_string(std::thread::hardware_concurrency())},
      {"engine",
       "\"" + std::string(modelcheck::engine_name(options.engine)) + "\""},
      {"max_nodes", std::to_string(options.max_nodes)},
  };
  {
    obs::JsonWriter w;
    w.begin_object();
    w.key("rows");
    w.value_uint(result.rows.size());
    w.key("all_ok");
    w.value_bool(result.all_ok());
    w.end_object();
    run_report.sections.emplace_back("hierarchy", std::move(w).str());
  }
  if (const Status s = obs_cli.finish(&run_report); !s.is_ok()) {
    std::fprintf(stderr, "%s\n", s.to_string().c_str());
    return 1;
  }

  if (!result.all_ok()) {
    std::fprintf(stderr, "hierarchy sweep: some row failed verification\n");
    return 3;
  }
  return 0;
}
