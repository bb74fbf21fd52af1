#include "modelcheck/fuzz.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <optional>
#include <set>
#include <thread>
#include <unordered_set>
#include <utility>

#include "base/check.h"
#include "base/hashing.h"
#include "base/rng.h"
#include "modelcheck/checkpoint.h"
#include "obs/obs.h"
#include "sim/trace.h"

namespace lbsa::modelcheck {
namespace {

using sim::ScriptedAdversary;

// Polled at run boundaries; stop_after_runs is handled by the coverage
// engine only (see FuzzOptions).
bool lifecycle_stop(const FuzzOptions& options) {
  if (options.cancel != nullptr && options.cancel->cancelled()) return true;
  return deadline_passed(options.deadline);
}

// Uniform adversary with geometric bursts: with probability (1 - 1/8) it
// re-picks the process it scheduled last, producing long solo stretches.
class BurstAdversary final : public sim::Adversary {
 public:
  explicit BurstAdversary(std::uint64_t seed) : rng_(seed) {}

  int pick_process(const sim::Config& config,
                   std::uint64_t /*step_index*/) override {
    if (last_ >= 0 && config.enabled(last_) && !rng_.next_bool(0.125)) {
      return last_;
    }
    const int enabled = config.enabled_count();
    if (enabled == 0) return kStop;
    last_ = config.nth_enabled(static_cast<int>(
        rng_.next_below(static_cast<std::uint64_t>(enabled))));
    return last_;
  }

  int pick_outcome(int outcome_count, std::uint64_t /*step_index*/) override {
    if (outcome_count <= 1) return 0;
    return static_cast<int>(
        rng_.next_below(static_cast<std::uint64_t>(outcome_count)));
  }

 private:
  Xoshiro256 rng_;
  int last_ = -1;
};

// Everything a single fuzz run produces; merged into the report in run
// order so the report is independent of execution order.
struct RunOutput {
  bool terminated = false;
  bool violated = false;
  std::string property;
  std::string detail;
  std::vector<ScriptedAdversary::Choice> schedule;  // executed steps
  std::vector<std::uint64_t> fingerprints;  // first-K distinct, in order
};

// What one thread reuses from run to run: the configuration being stepped,
// its prepared step, and the run's fingerprint set and encode buffer.
struct RunScratch {
  sim::Config config;
  sim::PreparedStep prepared;
  std::unordered_set<std::uint64_t> seen;
  std::vector<std::int64_t> encoded;
};

// One run from `initial`: a lenient replay of `prefix` (empty for a fresh
// run; a mutated schedule for a mutated one), then a random or burst
// continuation to termination or budget — so a mutated run explores just as
// deep as a fresh one, but starts from an interesting region. Records the
// effective schedule (always strict-valid), the per-step configuration
// fingerprints, and the first violation, if any.
RunOutput execute_run(const sim::Protocol& protocol,
                      const SafetyPredicate& judge, const sim::Config& initial,
                      const std::vector<ScriptedAdversary::Choice>& prefix,
                      std::uint64_t seed, bool burst,
                      const FuzzOptions& options, RunScratch* scratch) {
  RunOutput out;
  // Live execution tallies are volatile: the blind engine keeps executing
  // already-claimed runs past the deterministic early-stop cutoff, so the
  // number of executions (unlike the report's runs_executed) is
  // schedule-dependent.
  LBSA_OBS_COUNTER_ADD_V("fuzz.exec.runs", 1);
  sim::Config& config = scratch->config;
  config = initial;
  scratch->seen.clear();

  // Records one executed step, its fingerprint, and the first violation;
  // true means the run is over.
  auto record_step = [&](const ScriptedAdversary::Choice& taken) -> bool {
    out.schedule.push_back(taken);
    if (scratch->seen.size() < options.max_fingerprints_per_run) {
      config.encode_into(&scratch->encoded);
      const std::uint64_t h = hash_words(scratch->encoded);
      if (scratch->seen.insert(h).second) out.fingerprints.push_back(h);
    }
    auto [property, detail] = judge(config);
    if (!property.empty()) {
      out.property = std::move(property);
      out.detail = std::move(detail);
      out.violated = true;
      return true;
    }
    return false;
  };

  for (const ScriptedAdversary::Choice& event : prefix) {
    const auto taken =
        lenient_step(protocol, event, &config, &scratch->prepared);
    if (!taken) continue;
    if (taken->crash) {
      out.schedule.push_back(*taken);
      continue;
    }
    if (record_step(*taken)) return out;
    if (out.schedule.size() >= options.max_steps_per_run) return out;
  }

  sim::RandomAdversary uniform(seed);
  BurstAdversary bursty(seed);
  sim::Adversary& adversary = burst
                                  ? static_cast<sim::Adversary&>(bursty)
                                  : static_cast<sim::Adversary&>(uniform);
  for (std::uint64_t step = out.schedule.size();
       step < options.max_steps_per_run && !config.halted(); ++step) {
    const int pid = adversary.pick_process(config, step);
    if (pid == sim::Adversary::kStop) break;
    sim::prepare_step(protocol, config, pid, &scratch->prepared);
    const int outcome =
        adversary.pick_outcome(scratch->prepared.outcome_count(), step);
    // Volatile, as in Simulation: the blind engine's step total depends on
    // thread timing.
    LBSA_OBS_COUNTER_ADD_V("sim.steps", 1);
    sim::commit_step(protocol, &config, outcome, &scratch->prepared);
    if (record_step({pid, outcome, false})) return out;
  }
  out.terminated = config.halted();
  return out;
}

// Mutation kinds, in the order rng.next_below(3) selects them: splice,
// burst, crash.
constexpr int kMutationKinds = 3;

// Counts one applied mutation of `kind`, or with `interesting` one that
// grew coverage. LBSA_OBS_COUNTER_ADD caches one handle per call site, so
// each counter name gets its own site. The coverage engine is serial and
// seed-deterministic, so these are stable.
void count_mutation(int kind, bool interesting) {
  switch (kind * 2 + (interesting ? 1 : 0)) {
    case 0:
      LBSA_OBS_COUNTER_ADD("fuzz.mutation.splice", 1);
      break;
    case 1:
      LBSA_OBS_COUNTER_ADD("fuzz.mutation.splice.interesting", 1);
      break;
    case 2:
      LBSA_OBS_COUNTER_ADD("fuzz.mutation.burst", 1);
      break;
    case 3:
      LBSA_OBS_COUNTER_ADD("fuzz.mutation.burst.interesting", 1);
      break;
    case 4:
      LBSA_OBS_COUNTER_ADD("fuzz.mutation.crash", 1);
      break;
    case 5:
      LBSA_OBS_COUNTER_ADD("fuzz.mutation.crash.interesting", 1);
      break;
  }
}

// Pool mutations: splice two interesting schedules, insert a solo burst,
// or inject a crash event. Deterministic in `rng`; *kind_out reports which
// mutation was applied (0 splice, 1 burst, 2 crash).
std::vector<ScriptedAdversary::Choice> mutate_schedule(
    const std::deque<std::vector<ScriptedAdversary::Choice>>& pool,
    int process_count, Xoshiro256& rng, int* kind_out) {
  std::vector<ScriptedAdversary::Choice> base =
      pool[rng.next_below(pool.size())];
  const int kind = static_cast<int>(rng.next_below(kMutationKinds));
  *kind_out = kind;
  switch (kind) {
    case 0: {  // splice: prefix of base + suffix of another pool entry
      const auto& other = pool[rng.next_below(pool.size())];
      const std::size_t cut_a = rng.next_below(base.size() + 1);
      const std::size_t cut_b = rng.next_below(other.size() + 1);
      base.resize(cut_a);
      base.insert(base.end(), other.begin() + static_cast<std::ptrdiff_t>(cut_b),
                  other.end());
      return base;
    }
    case 1: {  // burst-insert: a solo stretch of one process
      const std::size_t pos = rng.next_below(base.size() + 1);
      const int pid = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(process_count)));
      const std::size_t len = 1 + rng.next_below(16);
      std::vector<ScriptedAdversary::Choice> burst(
          len, {pid, static_cast<int>(rng.next_below(4)), false});
      base.insert(base.begin() + static_cast<std::ptrdiff_t>(pos),
                  burst.begin(), burst.end());
      return base;
    }
    default: {  // crash-insert
      const std::size_t pos = rng.next_below(base.size() + 1);
      const int pid = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(process_count)));
      base.insert(base.begin() + static_cast<std::ptrdiff_t>(pos),
                  {pid, 0, true});
      return base;
    }
  }
}

// Merges per-run outputs (in run order) into the report: fingerprint
// union, termination counts, violations up to max_violations. Returns at
// the deterministic early-stop cutoff.
void aggregate_in_order(const std::vector<RunOutput>& outputs,
                        const std::vector<std::uint64_t>& run_seeds,
                        std::uint64_t count, const FuzzOptions& options,
                        FuzzReport* report,
                        std::vector<std::vector<ScriptedAdversary::Choice>>*
                            violation_schedules) {
  std::unordered_set<std::uint64_t> global;
  for (std::uint64_t i = 0; i < count; ++i) {
    const RunOutput& out = outputs[i];
    ++report->runs_executed;
    bool fresh = false;
    for (std::uint64_t h : out.fingerprints) {
      if (global.insert(h).second) fresh = true;
    }
    if (fresh) ++report->interesting_runs;
    if (out.terminated) ++report->runs_terminated;
    if (out.violated) {
      FuzzViolation v;
      v.property = out.property;
      v.detail = out.detail;
      v.run_seed = run_seeds[i];
      report->violations.push_back(std::move(v));
      violation_schedules->push_back(out.schedule);
      if (static_cast<int>(report->violations.size()) >=
          options.max_violations) {
        break;
      }
    }
  }
  report->distinct_fingerprints = global.size();
}

// Fills in the schedule strings, shrinking each violation when enabled.
void finalize_violations(
    const std::shared_ptr<const sim::Protocol>& protocol,
    const SafetyPredicate& judge, const FuzzOptions& options,
    const std::vector<std::vector<ScriptedAdversary::Choice>>& schedules,
    FuzzReport* report) {
  for (std::size_t i = 0; i < report->violations.size(); ++i) {
    FuzzViolation& v = report->violations[i];
    v.schedule = sim::schedule_to_string(schedules[i]);
    v.raw_steps = schedules[i].size();
    if (options.shrink_violations) {
      ShrinkStats stats;
      const auto shrunk = shrink_schedule(protocol, schedules[i], judge,
                                          v.property, options.shrink, &stats);
      v.shrunk_schedule = sim::schedule_to_string(shrunk);
      v.shrunk_steps = shrunk.size();
      report->shrink_replays += stats.replays;
    } else {
      v.shrunk_schedule = v.schedule;
      v.shrunk_steps = v.raw_steps;
    }
  }
}

// Blind engine: independent pre-seeded runs, optionally across threads.
// Work is claimed from an atomic counter (so the claimed set is always a
// contiguous prefix), every claimed run completes, and the results are
// merged in run order — which makes the report byte-identical for every
// thread count, early stop included.
FuzzReport fuzz_blind(const std::shared_ptr<const sim::Protocol>& protocol,
                      const SafetyPredicate& judge,
                      const FuzzOptions& options) {
  FuzzReport report;
  report.seed = options.seed;
  report.engine = "blind";
  const std::uint64_t budget = options.runs;
  if (budget == 0) return report;

  std::vector<std::uint64_t> run_seeds(budget);
  std::vector<bool> run_burst(budget);
  Xoshiro256 meta(options.seed);
  for (std::uint64_t i = 0; i < budget; ++i) {
    run_seeds[i] = meta.next();
    run_burst[i] = meta.next_bool(options.burst_fraction);
  }

  const sim::Config initial = sim::initial_config(*protocol);
  std::vector<RunOutput> outputs(budget);
  std::atomic<std::uint64_t> next{0};
  std::atomic<int> violations_found{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> cancelled{false};

  auto worker = [&](int widx) {
    // Per-worker lane; excluded from trace-count determinism comparisons.
    LBSA_OBS_SPAN(span, "fuzz.worker", obs::kCatWorker, widx + 1);
    RunScratch scratch;
    while (!stop.load(std::memory_order_relaxed)) {
      if (lifecycle_stop(options)) {
        // Already-claimed runs complete (the aggregated prefix stays
        // contiguous); no new ones start.
        cancelled.store(true, std::memory_order_relaxed);
        stop.store(true, std::memory_order_relaxed);
        break;
      }
      const std::uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= budget) break;
      outputs[i] = execute_run(*protocol, judge, initial, {}, run_seeds[i],
                               run_burst[i], options, &scratch);
      if (!outputs[i].violated) {
        outputs[i].schedule = {};  // only a violation's schedule is kept
      } else if (violations_found.fetch_add(1) + 1 >= options.max_violations) {
        stop.store(true, std::memory_order_relaxed);
      }
    }
  };

  const int threads = static_cast<int>(std::min<std::uint64_t>(
      static_cast<std::uint64_t>(resolve_threads(options.threads)), budget));
  report.threads = threads;
  if (threads <= 1) {
    worker(0);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) workers.emplace_back(worker, t);
    for (std::thread& w : workers) w.join();
  }

  const std::uint64_t claimed = std::min(next.load(), budget);
  report.interrupted = cancelled.load() && claimed < budget;
  std::vector<std::vector<ScriptedAdversary::Choice>> schedules;
  aggregate_in_order(outputs, run_seeds, claimed, options, &report,
                     &schedules);
  finalize_violations(protocol, judge, options, schedules, &report);
  return report;
}

// Coverage-guided engine (serial): fingerprints feed an interesting-
// schedule pool that mutations breed from.
//
// Checkpoints are taken at run boundaries, before any of the next run's
// RNG draws, and capture the meta stream position, the coverage set, the
// pool, and the raw (unshrunk) violations. Shrinking runs once, at
// campaign end, so a resumed campaign's final report — shrink_replays
// included — is byte-identical to an uninterrupted one.
FuzzReport fuzz_coverage(const std::shared_ptr<const sim::Protocol>& protocol,
                         const SafetyPredicate& judge,
                         const FuzzOptions& options,
                         std::uint64_t fingerprint) {
  FuzzReport report;
  report.seed = options.seed;
  report.engine = "coverage";
  report.threads = 1;
  Xoshiro256 meta(options.seed);
  std::unordered_set<std::uint64_t> global;
  std::deque<std::vector<ScriptedAdversary::Choice>> pool;
  std::vector<std::vector<ScriptedAdversary::Choice>> schedules;
  const sim::Config initial = sim::initial_config(*protocol);
  RunScratch scratch;

  std::uint64_t start_run = 0;
  if (options.resume != nullptr) {
    const FuzzCheckpoint& cp = *options.resume;
    start_run = cp.runs_completed;
    meta.set_state(cp.rng_state);
    global.insert(cp.global_fingerprints.begin(),
                  cp.global_fingerprints.end());
    for (const std::string& s : cp.pool) {
      auto schedule = sim::parse_schedule(s);
      LBSA_CHECK_MSG(schedule.is_ok(),
                     "fuzz resume: unparseable pool schedule");
      pool.push_back(std::move(schedule).value());
    }
    report.runs_executed = cp.runs_completed;
    report.runs_terminated = cp.runs_terminated;
    report.interesting_runs = cp.interesting_runs;
    report.mutated_runs = cp.mutated_runs;
    for (const FuzzCheckpoint::RawViolation& rv : cp.violations) {
      FuzzViolation v;
      v.property = rv.property;
      v.detail = rv.detail;
      v.run_seed = rv.run_seed;
      report.violations.push_back(std::move(v));
      auto schedule = sim::parse_schedule(rv.schedule);
      LBSA_CHECK_MSG(schedule.is_ok(),
                     "fuzz resume: unparseable violation schedule");
      schedules.push_back(std::move(schedule).value());
    }
  }

  auto write_checkpoint = [&](std::uint64_t runs_completed) -> Status {
    FuzzCheckpoint cp;
    cp.fingerprint = fingerprint;
    cp.task_label = options.checkpoint_label;
    cp.runs_completed = runs_completed;
    cp.rng_state = meta.state();
    cp.global_fingerprints.assign(global.begin(), global.end());
    // Only membership matters in-memory; sorting makes the file (and so
    // any checkpoint-level comparison) deterministic.
    std::sort(cp.global_fingerprints.begin(), cp.global_fingerprints.end());
    cp.pool.reserve(pool.size());
    for (const auto& schedule : pool) {
      cp.pool.push_back(sim::schedule_to_string(schedule));
    }
    cp.runs_terminated = report.runs_terminated;
    cp.interesting_runs = report.interesting_runs;
    cp.mutated_runs = report.mutated_runs;
    cp.violations.reserve(report.violations.size());
    for (std::size_t i = 0; i < report.violations.size(); ++i) {
      FuzzCheckpoint::RawViolation rv;
      rv.property = report.violations[i].property;
      rv.detail = report.violations[i].detail;
      rv.run_seed = report.violations[i].run_seed;
      rv.schedule = sim::schedule_to_string(schedules[i]);
      rv.raw_steps = schedules[i].size();
      cp.violations.push_back(std::move(rv));
    }
    LBSA_OBS_COUNTER_ADD_V("fuzz.checkpoint.writes", 1);
    return write_fuzz_checkpoint(cp, options.checkpoint_path);
  };

  for (std::uint64_t run = start_run; run < options.runs; ++run) {
    // Run boundary: no RNG draw for this run has happened yet, so a
    // checkpoint taken here resumes with an identical stream.
    const std::uint64_t session_runs = run - start_run;
    const bool stop_requested =
        lifecycle_stop(options) || (options.stop_after_runs > 0 &&
                                    session_runs >= options.stop_after_runs);
    if (stop_requested) {
      report.interrupted = true;
      if (!options.checkpoint_path.empty()) {
        const Status written = write_checkpoint(run);
        if (!written.is_ok()) report.checkpoint_error = written.to_string();
      }
      break;
    }
    if (!options.checkpoint_path.empty() &&
        options.checkpoint_every_runs > 0 && session_runs > 0 &&
        session_runs % options.checkpoint_every_runs == 0) {
      const Status written = write_checkpoint(run);
      if (!written.is_ok()) {
        report.checkpoint_error = written.to_string();
        break;
      }
    }
    const std::uint64_t run_seed = meta.next();
    const bool burst = meta.next_bool(options.burst_fraction);
    const bool mutate =
        !pool.empty() && meta.next_bool(options.mutation_fraction);

    RunOutput out;
    int mutation_kind = -1;
    if (mutate) {
      ++report.mutated_runs;
      Xoshiro256 rng(run_seed);
      const auto mutated = mutate_schedule(pool, protocol->process_count(),
                                           rng, &mutation_kind);
      count_mutation(mutation_kind, /*interesting=*/false);
      out = execute_run(*protocol, judge, initial, mutated, rng.next(), burst,
                        options, &scratch);
    } else {
      out = execute_run(*protocol, judge, initial, {}, run_seed, burst,
                        options, &scratch);
    }

    ++report.runs_executed;
    if (out.terminated) ++report.runs_terminated;
    bool fresh = false;
    for (std::uint64_t h : out.fingerprints) {
      if (global.insert(h).second) fresh = true;
    }
    if (fresh) {
      ++report.interesting_runs;
      // Mutation-kind yield: which mutations actually grow coverage.
      if (mutation_kind >= 0) {
        count_mutation(mutation_kind, /*interesting=*/true);
      }
      pool.push_back(out.schedule);
      while (pool.size() > options.pool_limit) pool.pop_front();
      LBSA_OBS_GAUGE_MAX("fuzz.pool.peak", pool.size());
    }
    if (out.violated) {
      FuzzViolation v;
      v.property = out.property;
      v.detail = out.detail;
      v.run_seed = run_seed;
      report.violations.push_back(std::move(v));
      schedules.push_back(std::move(out.schedule));
      if (static_cast<int>(report.violations.size()) >=
          options.max_violations) {
        break;
      }
    }
  }
  report.distinct_fingerprints = global.size();
  finalize_violations(protocol, judge, options, schedules, &report);
  return report;
}

// The judges run after every fuzz step, so they allocate nothing unless
// they report a violation.

// Number of distinct decided values: a decision counts once, at the first
// process that decided it.
int distinct_decisions(const sim::Config& config) {
  int distinct = 0;
  for (std::size_t i = 0; i < config.procs.size(); ++i) {
    if (!config.procs[i].decided()) continue;
    bool repeat = false;
    for (std::size_t j = 0; j < i && !repeat; ++j) {
      repeat = config.procs[j].decided() &&
               config.procs[j].decision == config.procs[i].decision;
    }
    if (!repeat) ++distinct;
  }
  return distinct;
}

// The smallest decided value for which `invalid` holds, if any.
template <typename Invalid>
std::optional<Value> smallest_invalid_decision(const sim::Config& config,
                                               Invalid invalid) {
  std::optional<Value> smallest;
  for (const sim::ProcessState& ps : config.procs) {
    if (ps.decided() && (!smallest || ps.decision < *smallest) &&
        invalid(ps.decision)) {
      smallest = ps.decision;
    }
  }
  return smallest;
}

}  // namespace

bool FuzzReport::violates(const std::string& property) const {
  return std::any_of(
      violations.begin(), violations.end(),
      [&](const FuzzViolation& v) { return v.property == property; });
}

SafetyPredicate k_agreement_safety(int k, std::vector<Value> inputs) {
  LBSA_CHECK(k >= 1);
  std::set<Value> input_set(inputs.begin(), inputs.end());
  return [k, input_set = std::move(input_set)](const sim::Config& config)
             -> std::pair<std::string, std::string> {
    const int distinct = distinct_decisions(config);
    if (distinct > k) {
      return {"agreement", std::to_string(distinct) + " distinct decisions"};
    }
    const std::optional<Value> unproposed = smallest_invalid_decision(
        config, [&](Value v) { return !input_set.contains(v); });
    if (unproposed) {
      return {"validity",
              "decided " + value_to_string(*unproposed) + " never proposed"};
    }
    for (std::size_t pid = 0; pid < config.procs.size(); ++pid) {
      if (config.procs[pid].aborted()) {
        // Matches check_k_agreement_task's property name for the same
        // condition (k-set agreement has no distinguished process).
        return {"no-abort", "p" + std::to_string(pid) + " aborted"};
      }
    }
    return {"", ""};
  };
}

SafetyPredicate dac_safety(int distinguished_pid, std::vector<Value> inputs) {
  return [distinguished_pid, inputs = std::move(inputs)](
             const sim::Config& config)
             -> std::pair<std::string, std::string> {
    const int distinct = distinct_decisions(config);
    if (distinct > 1) {
      return {"agreement", std::to_string(distinct) + " distinct decisions"};
    }
    const std::optional<Value> unwitnessed =
        smallest_invalid_decision(config, [&](Value v) {
          for (std::size_t pid = 0; pid < config.procs.size(); ++pid) {
            if (inputs[pid] == v && !config.procs[pid].aborted()) return false;
          }
          return true;
        });
    if (unwitnessed) {
      return {"validity", "decided " + value_to_string(*unwitnessed) +
                              " has no non-aborting proposer"};
    }
    for (std::size_t pid = 0; pid < config.procs.size(); ++pid) {
      if (config.procs[pid].aborted() &&
          static_cast<int>(pid) != distinguished_pid) {
        return {"only-p-aborts", "p" + std::to_string(pid) + " aborted"};
      }
    }
    return {"", ""};
  };
}

Status validate_fuzz_options(const FuzzOptions& options) {
  if (options.threads > kMaxThreads) {
    return invalid_argument("fuzz: threads " +
                            std::to_string(options.threads) +
                            " exceeds the maximum of " +
                            std::to_string(kMaxThreads));
  }
  if (options.coverage_guided) return Status::ok();
  if (!options.checkpoint_path.empty()) {
    return invalid_argument(
        "fuzz: checkpoint_path is set but the blind engine cannot checkpoint "
        "(its claim order is thread-scheduling dependent); pass "
        "coverage_guided=true or drop checkpoint_path");
  }
  if (options.resume != nullptr) {
    return invalid_argument(
        "fuzz: resume is set but the blind engine cannot resume a "
        "checkpoint; pass coverage_guided=true or drop resume");
  }
  if (options.stop_after_runs != 0) {
    return invalid_argument(
        "fuzz: stop_after_runs is set but the blind engine has no "
        "deterministic run boundary to stop at; pass coverage_guided=true "
        "or drop stop_after_runs");
  }
  return Status::ok();
}

FuzzReport fuzz_safety(std::shared_ptr<const sim::Protocol> protocol,
                       const SafetyPredicate& judge,
                       const FuzzOptions& options) {
  LBSA_CHECK(protocol != nullptr);
  LBSA_CHECK(options.max_violations >= 1);
  LBSA_CHECK_MSG(options.coverage_guided || (options.checkpoint_path.empty() &&
                                             options.resume == nullptr),
                 "fuzz checkpoint/resume requires the coverage engine");
  LBSA_CHECK_MSG(options.threads <= kMaxThreads, "fuzz: too many threads");
  if (options.resume != nullptr) {
    // Callers surface mismatches gracefully by running validate_fuzz_resume
    // themselves first (the CLIs do); reaching here with a bad checkpoint is
    // a contract violation.
    const Status valid = validate_fuzz_resume(*protocol, options,
                                              *options.resume);
    LBSA_CHECK_MSG(valid.is_ok(), valid.to_string().c_str());
  }
  LBSA_OBS_SPAN(span, "fuzz.run", obs::kCatTask, /*lane=*/0);
  FuzzReport report =
      options.coverage_guided
          ? fuzz_coverage(protocol, judge, options,
                          fuzz_fingerprint(*protocol, options))
          : fuzz_blind(protocol, judge, options);
  span.arg("runs", static_cast<std::int64_t>(report.runs_executed));
  span.arg("violations", static_cast<std::int64_t>(report.violations.size()));
  // Report aggregates are deterministic by construction (blind reports are
  // byte-identical across thread counts; the coverage engine is serial), so
  // the stable counters mirror the report, not the live execution tallies.
  LBSA_OBS_COUNTER_ADD("fuzz.runs_executed", report.runs_executed);
  LBSA_OBS_COUNTER_ADD("fuzz.runs_terminated", report.runs_terminated);
  LBSA_OBS_COUNTER_ADD("fuzz.interesting_runs", report.interesting_runs);
  LBSA_OBS_COUNTER_ADD("fuzz.mutated_runs", report.mutated_runs);
  LBSA_OBS_COUNTER_ADD("fuzz.shrink_replays", report.shrink_replays);
  LBSA_OBS_COUNTER_ADD("fuzz.violations", report.violations.size());
  LBSA_OBS_GAUGE_MAX("fuzz.distinct_fingerprints",
                     report.distinct_fingerprints);
  return report;
}

FuzzReport fuzz_k_agreement(std::shared_ptr<const sim::Protocol> protocol,
                            int k, const std::vector<Value>& inputs,
                            const FuzzOptions& options) {
  return fuzz_safety(std::move(protocol), k_agreement_safety(k, inputs),
                     options);
}

FuzzReport fuzz_dac(std::shared_ptr<const sim::Protocol> protocol,
                    int distinguished_pid, const std::vector<Value>& inputs,
                    const FuzzOptions& options) {
  return fuzz_safety(std::move(protocol),
                     dac_safety(distinguished_pid, inputs), options);
}

}  // namespace lbsa::modelcheck
