// lbsa_perfbench — one workload of the time-to-verdict benchmark.
//
//   lbsa_perfbench --workload corpus-check|hierarchy-sweep|fuzz-groupksa
//                  --seed N --seconds S --trace 0|1
//                  [--setup-only] [--flip-expectation]
//
// Run from the repository root: it reads HIERARCHY.json and writes the
// traced iteration's spans under .bench_out/.
//
// Runs cold iterations of the workload, untraced, until S seconds have
// passed (at least one), checking every verdict against the reference.
// With --trace 1 it then runs one traced iteration and the stage replay
// and engine comparison, and reports the per-layer metrics. Prints one
// JSON object on stdout; perfbench/run.py turns it into the benchmark's
// result line. --setup-only exits right where the first timed iteration
// would start (run.py samples set-up time with it).
//
// Exit codes: 0 every verdict matched, 1 a verdict error, 2 usage or
// set-up error, or a build this benchmark refuses to time.
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "base/check.h"
#include "bench.h"
#include "obs/json.h"

namespace lbsa::perfbench {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

#if defined(LBSA_OBS_DISABLED)
constexpr bool kObsDisabled = true;
#else
constexpr bool kObsDisabled = false;
#endif

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  bool flip_expectation = false;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (!std::strcmp(flag, "--setup-only")) {
      a->setup_only = true;
    } else if (!std::strcmp(flag, "--flip-expectation")) {
      a->flip_expectation = true;
    } else if (!has_value) {
      return false;
    } else if (!std::strcmp(flag, "--workload")) {
      a->workload = argv[++i];
    } else if (!std::strcmp(flag, "--seed")) {
      a->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (!std::strcmp(flag, "--seconds")) {
      a->seconds = std::strtod(argv[++i], nullptr);
    } else if (!std::strcmp(flag, "--trace")) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else {
      return false;
    }
  }
  return !a->workload.empty() && std::isfinite(a->seconds) && a->seconds >= 0;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

// Full precision: the result line carries every digit measured. Every
// ratio is guarded, so a non-finite value is a benchmark bug.
void put_double(obs::JsonWriter* w, double v) {
  LBSA_CHECK_MSG(std::isfinite(v), "non-finite benchmark value");
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  w->value_raw(buf);
}

void put_map(obs::JsonWriter* w, const char* key, const MetricMap& m) {
  w->key(key);
  w->begin_object();
  for (const auto& [name, value] : m) {
    w->key(name);
    put_double(w, value);
  }
  w->end_object();
}

int run(const Args& a) {
  StatusOr<Workload> workload_or =
      set_up_workload(a.workload, a.seed, a.flip_expectation);
  if (!workload_or.is_ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 workload_or.status().to_string().c_str());
    return 2;
  }
  const Workload& workload = workload_or.value();
  const double timed_start = now_s();
  if (a.setup_only) {
    std::printf("{\"timed_start_s\":%.9f}\n", timed_start);
    return 0;
  }

  Verdicts verdicts;
  std::vector<double> walls, cpus;
  do {
    FuzzTally fuzz;
    const double c0 = cpu_s();
    const double t0 = now_s();
    run_iteration(workload, nullptr, &verdicts, &fuzz);
    walls.push_back(now_s() - t0);
    cpus.push_back(cpu_s() - c0);
  } while (now_s() - timed_start < a.seconds);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double untraced_wall = median_of(walls);

  LayerReport layers;
  std::string auto_engine;
  std::string trace_file;
  if (a.trace) {
    TracedIteration traced;
    SpanLog spans(static_cast<int>(walls.size()));
    obs::Registry::global().reset_values();
    obs::Tracer::global().reset();
    obs::set_metrics_enabled(true);
    obs::set_tracing_enabled(true);
    const double t0 = now_s();
    run_iteration(workload, &spans, &verdicts, &traced.fuzz);
    traced.wall_s = now_s() - t0;
    obs::set_tracing_enabled(false);
    obs::set_metrics_enabled(false);
    traced.bench = spans.spans();
    traced.program = obs::Tracer::global().snapshot();
    traced.metrics = obs::Registry::global().snapshot();
    layers = analyze_traced_iteration(traced);

    MetricMap& m = layers.metrics;
    std::vector<double> cpu_per_wall;
    for (std::size_t i = 0; i < walls.size(); ++i) {
      cpu_per_wall.push_back(walls[i] > 0 ? cpus[i] / walls[i] : 0.0);
    }
    m["proc.cpu_s"] = median_of(cpus);
    m["proc.cpu_per_wall"] = median_of(cpu_per_wall);
    m["trace.overhead_share"] =
        untraced_wall > 0 ? (traced.wall_s - untraced_wall) / untraced_wall
                          : 0.0;
    zero_replay_metrics(&m);
    if (workload.name == kCorpusCheck) {
      compare_engines(&m, &verdicts, &auto_engine,
                      [&](const sim::Protocol& protocol,
                          const modelcheck::ConfigGraph& graph) {
                        replay_graph(protocol, graph, nullptr, &m, &verdicts);
                      });
    } else if (workload.name == kHierarchySweep) {
      replay_hierarchy_instance(&m, &verdicts);
    }
    m["explore.stage_coverage"] =
        stage_coverage(m, workload.name == kHierarchySweep);

    std::error_code ec;
    std::filesystem::create_directories(".bench_out", ec);
    trace_file = ".bench_out/trace-" + workload.name + "-seed" +
                 std::to_string(a.seed) + ".json";
    std::ofstream out(trace_file, std::ios::binary | std::ios::trunc);
    out << layers.trace_json << "\n";
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_file.c_str());
      trace_file.clear();
    }
  }

  obs::JsonWriter w;
  w.begin_object();
  w.key("workload");
  w.value_string(workload.name);
  w.key("seed");
  w.value_uint(a.seed);
  w.key("trace");
  w.value_bool(a.trace);
  w.key("obs_disabled");
  w.value_bool(kObsDisabled);
  w.key("timed_start_s");
  put_double(&w, timed_start);
  w.key("iterations");
  w.begin_array();
  for (std::size_t i = 0; i < walls.size(); ++i) {
    w.begin_object();
    w.key("wall_s");
    put_double(&w, walls[i]);
    w.key("cpu_s");
    put_double(&w, cpus[i]);
    w.end_object();
  }
  w.end_array();
  w.key("wall_to_verdict_s");
  put_double(&w, untraced_wall);
  w.key("peak_rss_kb");
  w.value_int(usage.ru_maxrss);
  w.key("attempted");
  w.value_uint(verdicts.attempted);
  w.key("failed");
  w.value_uint(verdicts.failed);
  w.key("errors");
  w.begin_array();
  for (const std::string& e : verdicts.errors) w.value_string(e);
  w.end_array();
  if (a.trace) {
    put_map(&w, "layers", layers.metrics);
    put_map(&w, "breakdown", layers.breakdown);
    w.key("auto_engine");
    w.value_string(auto_engine);
    w.key("trace_file");
    w.value_string(trace_file);
  }
  w.end_object();
  std::printf("%s\n", std::move(w).str().c_str());
  return verdicts.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace lbsa::perfbench

int main(int argc, char** argv) {
  using namespace lbsa::perfbench;
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: lbsa_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--setup-only] [--flip-expectation]\n");
    return 2;
  }
  if (kSanitized || !kOptimized) {
    std::fprintf(stderr,
                 "perfbench: refusing to time a %s build; rebuild with "
                 "CMAKE_BUILD_TYPE=Release or RelWithDebInfo and no "
                 "sanitizer\n",
                 kSanitized ? "sanitizer" : "unoptimized");
    return 2;
  }
  if (args.trace && kObsDisabled) {
    std::fprintf(stderr,
                 "perfbench: --trace 1 needs the obs layer, but this build "
                 "defines LBSA_OBS_DISABLED\n");
    return 2;
  }
  return run(args);
}
