// The three workloads. Every iteration starts cold: tasks, protocols,
// graphs, intern tables, canonicalizers and cache pools are all built by
// the public calls themselves and die with the iteration.
#include <utility>

#include "base/hashing.h"
#include "bench.h"
#include "core/hierarchy_sweep.h"
#include "modelcheck/corpus.h"
#include "modelcheck/fuzz.h"
#include "sim/trace.h"

namespace lbsa::perfbench {

namespace {

// Fixed campaign size: 1.0-1.5 s of coverage-guided fuzzing on one
// 2.1 GHz Xeon core, and about 464k steps on every seed.
constexpr std::uint64_t kGroupKsaRuns = 20000;
// Upper bound on sentinel hunt runs. A hunt stops at its first violation;
// over seeds 0-399 that took at most 1 run on strawdac5 and 40 on
// mutant-2sa4.
constexpr std::uint64_t kSentinelRuns = 1000;
constexpr const char* kSentinels[] = {"strawdac5", "mutant-2sa4"};

void run_corpus_check(const Workload& w, SpanLog* spans, Verdicts* verdicts) {
  for (const CorpusExpectation& want : w.corpus) {
    StatusOr<modelcheck::TaskReport> report_or =
        internal_error("not run");
    {
      SpanLog::Scope span(spans, "bench.check", want.task);
      StatusOr<modelcheck::NamedTask> task_or =
          modelcheck::make_named_task(want.task);
      if (task_or.is_ok()) {
        const modelcheck::NamedTask& task = task_or.value();
        modelcheck::TaskCheckOptions options;
        options.explore.threads = kThreads;
        report_or = task.distinguished_pid >= 0
                        ? modelcheck::check_dac_task(task.protocol,
                                                     task.distinguished_pid,
                                                     task.inputs, options)
                        : modelcheck::check_k_agreement_task(
                              task.protocol, task.k, task.inputs, options);
      } else {
        report_or = task_or.status();
      }
    }
    verdicts->record(report_or.is_ok()
                         ? compare_corpus_verdict(want, report_or.value())
                         : std::string(want.task) + ": " +
                               report_or.status().to_string());
  }
}

void run_hierarchy_sweep(const Workload& w, SpanLog* spans,
                         Verdicts* verdicts) {
  core::SweepOptions options;
  options.engine = modelcheck::ExploreEngine::kAuto;
  options.threads = kThreads;
  core::SweepResult result;
  result.n_min = options.n_min;
  result.n_max = options.n_max;
  for (int n = options.n_min; n <= options.n_max; ++n) {
    for (int m = 1; m <= n; ++m) {
      const std::string cell =
          "n=" + std::to_string(n) + ",m=" + std::to_string(m);
      StatusOr<core::SweepRow> row_or = internal_error("not run");
      {
        SpanLog::Scope span(spans, "bench.row", cell);
        row_or = core::run_hierarchy_row(n, m, options);
      }
      if (!row_or.is_ok()) {
        verdicts->record(cell + ": " + row_or.status().to_string());
        continue;
      }
      verdicts->record(row_or.value().ok() ? "" : cell + ": row not ok");
      result.rows.push_back(std::move(row_or).value());
    }
  }
  std::string rows;
  {
    SpanLog::Scope span(spans, "bench.rows_json");
    rows = core::hierarchy_rows_json(result);
  }
  verdicts->record(rows == w.hierarchy_rows
                       ? ""
                       : "rows document differs from HIERARCHY.json");
}

// A shrunk sentinel schedule must replay as a corpus case.
std::string replay_problem(const std::string& task,
                           const std::string& schedule) {
  auto parsed = sim::parse_schedule(schedule);
  if (!parsed.is_ok()) return parsed.status().to_string();
  modelcheck::CorpusCase c;
  c.task = task;
  c.property = "agreement";
  c.schedule = std::move(parsed).value();
  const Status replay = modelcheck::replay_corpus_case(c);
  return replay.is_ok() ? "" : replay.to_string();
}

void run_fuzz_groupksa(const Workload& w, SpanLog* spans, Verdicts* verdicts,
                       FuzzTally* fuzz) {
  {
    modelcheck::FuzzReport report;
    {
      SpanLog::Scope span(spans, "bench.campaign", "groupksa");
      StatusOr<modelcheck::NamedTask> task_or =
          modelcheck::make_named_task("groupksa");
      if (!task_or.is_ok()) {
        verdicts->record("groupksa: " + task_or.status().to_string());
        return;
      }
      modelcheck::FuzzOptions options;
      options.runs = kGroupKsaRuns;
      options.seed = w.seed;
      options.coverage_guided = true;
      report = modelcheck::fuzz_named_task(task_or.value(), options);
    }
    fuzz->runs += report.runs_executed;
    fuzz->interesting_runs += report.interesting_runs;
    fuzz->distinct_fingerprints += report.distinct_fingerprints;
    std::string problem;
    if (report.runs_executed != kGroupKsaRuns || report.interrupted) {
      problem = "groupksa: executed " + std::to_string(report.runs_executed) +
                " of " + std::to_string(kGroupKsaRuns) + " runs";
    } else if (!report.ok()) {
      problem = "groupksa: " + report.violations.front().property +
                " violation: " + report.violations.front().detail;
    }
    verdicts->record(problem);
  }
  std::uint64_t salt = 0;
  for (const char* name : kSentinels) {
    modelcheck::FuzzReport report;
    {
      SpanLog::Scope span(spans, "bench.campaign", name);
      StatusOr<modelcheck::NamedTask> task_or =
          modelcheck::make_named_task(name);
      if (!task_or.is_ok()) {
        verdicts->record(std::string(name) + ": " +
                         task_or.status().to_string());
        continue;
      }
      modelcheck::FuzzOptions options;
      options.runs = kSentinelRuns;
      options.seed = mix64(w.seed ^ ++salt);
      options.coverage_guided = true;
      options.max_violations = 1;
      report = modelcheck::fuzz_named_task(task_or.value(), options);
    }
    fuzz->runs += report.runs_executed;
    fuzz->interesting_runs += report.interesting_runs;
    fuzz->distinct_fingerprints += report.distinct_fingerprints;
    std::string problem;
    if (!report.violates("agreement")) {
      problem = std::string(name) + ": no agreement violation found";
    } else {
      const std::string replay =
          replay_problem(name, report.violations.front().shrunk_schedule);
      if (!replay.empty()) {
        problem = std::string(name) + ": shrunk schedule does not replay: " +
                  replay;
      }
    }
    verdicts->record(problem);
  }
}

}  // namespace

void Verdicts::record(const std::string& problem) {
  ++attempted;
  if (problem.empty()) return;
  ++failed;
  errors.push_back(problem);
}

SpanLog::Scope::Scope(SpanLog* log, std::string name, std::string label)
    : log_(log) {
  if (log_ == nullptr) return;
  index_ = static_cast<int>(log_->spans_.size());
  BenchSpan span;
  span.name = std::move(name);
  span.label = std::move(label);
  span.parent = log_->open_.empty() ? -1 : log_->open_.back();
  span.iteration = log_->iteration_;
  span.start_us = obs::trace_now_us();
  log_->spans_.push_back(std::move(span));
  log_->open_.push_back(index_);
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  log_->spans_[static_cast<std::size_t>(index_)].end_us = obs::trace_now_us();
  log_->open_.pop_back();
}

StatusOr<Workload> set_up_workload(const std::string& name, std::uint64_t seed,
                                   bool flip_expectation) {
  Workload w;
  w.name = name;
  w.seed = seed;
  if (name == kCorpusCheck) {
    w.corpus = corpus_expectations();
    if (flip_expectation) w.corpus.front().violated = !w.corpus.front().violated;
  } else if (name == kHierarchySweep) {
    StatusOr<std::string> rows = load_hierarchy_rows_reference("HIERARCHY.json");
    if (!rows.is_ok()) return rows.status();
    w.hierarchy_rows = std::move(rows).value();
  } else if (name != kFuzzGroupKsa) {
    return invalid_argument("unknown workload '" + name + "'");
  }
  if (flip_expectation && name != kCorpusCheck) {
    return invalid_argument("--flip-expectation applies to corpus-check");
  }
  return w;
}

void run_iteration(const Workload& workload, SpanLog* spans,
                   Verdicts* verdicts, FuzzTally* fuzz) {
  SpanLog::Scope span(spans, "bench.iteration", workload.name);
  if (workload.name == kCorpusCheck) {
    run_corpus_check(workload, spans, verdicts);
  } else if (workload.name == kHierarchySweep) {
    run_hierarchy_sweep(workload, spans, verdicts);
  } else {
    run_fuzz_groupksa(workload, spans, verdicts, fuzz);
  }
}

}  // namespace lbsa::perfbench
