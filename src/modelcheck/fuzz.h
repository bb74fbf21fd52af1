// Randomized schedule fuzzing: safety checking for instances beyond
// exhaustive reach. Runs many seeded adversarial executions, evaluates the
// task's safety predicates after every step, and reports each violation
// with a REPLAYABLE schedule (the sim/trace.h text format) — both the raw
// finding and a delta-debugged minimal version (modelcheck/shrink.h) — so
// a fuzz finding becomes a deterministic regression test.
//
// Two modes:
//   * blind (default) — independent uniform and burst-biased runs; scales
//     across FuzzOptions::threads with byte-identical reports for every
//     thread count (runs are pre-seeded, results merged in run order, and
//     the early-stop cutoff is computed deterministically).
//   * coverage-guided (FuzzOptions::coverage_guided) — per-step
//     configuration fingerprints (base/hashing.h) feed a pool of
//     "interesting" schedules (runs that reached a never-seen
//     configuration); most runs then mutate a pool entry — splice two
//     schedules, insert a solo burst, inject a crash — replay the mutated
//     prefix, and continue randomly to termination, instead of starting
//     from scratch. Single-threaded by design (the pool evolves run to
//     run); still fully determined by FuzzOptions::seed.
//
// Complements the exhaustive checker: violations found are real; a clean
// fuzz report is evidence, not proof (use check_*_task for proofs at small
// sizes).
#ifndef LBSA_MODELCHECK_FUZZ_H_
#define LBSA_MODELCHECK_FUZZ_H_

#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "modelcheck/cancel.h"
#include "modelcheck/shrink.h"
#include "sim/protocol.h"

namespace lbsa::modelcheck {

struct FuzzCheckpoint;  // modelcheck/checkpoint.h

struct FuzzOptions {
  std::uint64_t runs = 1000;
  std::uint64_t max_steps_per_run = 100'000;
  std::uint64_t seed = 1;
  // Probability that a fresh run uses the burst adversary (keeps scheduling
  // the same process for a geometric burst) instead of uniform — bursts
  // find solo-dependent violations that uniform schedules rarely hit.
  double burst_fraction = 0.5;
  // Stop after this many violations.
  int max_violations = 4;

  // Worker threads for blind fuzzing: 1 = serial, 0 = one per hardware
  // thread. The report is byte-identical for every thread count. Ignored
  // (serial) in coverage-guided mode.
  int threads = 1;

  // Coverage guidance (see file comment).
  bool coverage_guided = false;
  // Capacity of the interesting-schedule pool (oldest entries evicted).
  std::uint64_t pool_limit = 64;
  // Fraction of coverage-mode runs that mutate a pool entry (the rest are
  // fresh adversary runs; all runs are fresh while the pool is empty).
  double mutation_fraction = 0.75;
  // Per-run cap on recorded distinct fingerprints (bounds memory; both
  // modes use the same cap, so coverage comparisons stay apples-to-apples).
  std::uint64_t max_fingerprints_per_run = 4096;

  // Shrink every violation (delta debugging; see modelcheck/shrink.h).
  // When disabled, shrunk_schedule is a copy of the raw schedule.
  bool shrink_violations = true;
  ShrinkOptions shrink;

  // --- campaign lifecycle (docs/checking.md, "Long runs") ---
  // Cooperative cancellation and a steady-clock deadline, polled at run
  // boundaries (between runs). An interrupted campaign still returns a
  // valid report over the runs completed (FuzzReport::interrupted).
  // Honored by both engines. Non-owning; may be tripped from a signal
  // handler.
  const CancelToken* cancel = nullptr;
  Deadline deadline = {};
  // Deterministic interruption for tests: stop (interrupted) once this many
  // NEW runs have completed this session; 0 = unlimited. Coverage engine
  // only (the blind engine's claim order is thread-scheduling dependent).
  std::uint64_t stop_after_runs = 0;
  // When non-empty, a resumable checkpoint (RNG stream position, coverage
  // set, schedule pool, raw violations — see checkpoint.h) is written here
  // at every interruption, and additionally every checkpoint_every_runs
  // completed runs when that is non-zero. Coverage engine only. A failed
  // write stops the campaign with FuzzReport::checkpoint_error set.
  std::string checkpoint_path;
  std::uint64_t checkpoint_every_runs = 0;
  // Label echoed into checkpoints and error messages (task name).
  std::string checkpoint_label;
  // Resume a coverage campaign from a checkpoint (non-owning). Must pass
  // validate_fuzz_resume (see checkpoint.h); the resumed campaign replays
  // deterministically — its final report is byte-identical to an
  // uninterrupted run with the same options.
  const FuzzCheckpoint* resume = nullptr;
};

struct FuzzViolation {
  std::string property;  // "agreement" | "validity" | "no-abort" |
                         // "only-p-aborts" — same names as task_check.h
  std::string detail;
  std::uint64_t run_seed = 0;
  std::string schedule;          // raw finding; sim/trace.h format, replayable
  std::string shrunk_schedule;   // minimized finding; same format, replayable
  std::uint64_t raw_steps = 0;
  std::uint64_t shrunk_steps = 0;
};

struct FuzzReport {
  std::vector<FuzzViolation> violations;
  std::uint64_t runs_executed = 0;
  std::uint64_t runs_terminated = 0;  // all processes terminated in budget

  // Reproduction header: the exact inputs that generated this report.
  // Recorded in every report (and in corpus file headers, see corpus.h) so a
  // finding is always traceable to its generating configuration.
  std::uint64_t seed = 0;
  std::string engine;  // "blind" | "coverage"
  int threads = 1;     // resolved worker count (blind engine)

  // Coverage statistics (tracked in both modes).
  std::uint64_t distinct_fingerprints = 0;  // distinct configurations seen
  std::uint64_t interesting_runs = 0;  // runs that found a new fingerprint
  std::uint64_t mutated_runs = 0;      // coverage mode: runs bred from the pool
  std::uint64_t shrink_replays = 0;    // replays spent minimizing violations

  // Campaign stopped early at a run boundary (cancellation, deadline, or
  // FuzzOptions::stop_after_runs). The report covers the completed prefix;
  // with a checkpoint_path the campaign is resumable.
  bool interrupted = false;
  // Non-empty iff a checkpoint write failed (the campaign stops there; the
  // report covers the runs completed, but the checkpoint on disk is stale).
  std::string checkpoint_error;

  bool ok() const { return violations.empty(); }
  bool violates(const std::string& property) const;
};

// Rejects engine/knob combinations the blind engine cannot honor instead
// of silently dropping them: checkpoint_path, resume, and stop_after_runs
// all require coverage_guided (the blind engine's claim order is
// thread-scheduling dependent, so there is no resumable run boundary).
// INVALID_ARGUMENT names the offending knob, in the same style as the
// checkpoint wrong-run errors. fuzz_safety itself treats a bad combination
// as a contract violation (LBSA_CHECK); callers that accept external
// options validate here first and surface the Status.
Status validate_fuzz_options(const FuzzOptions& options);

// Safety predicate factories (shared by the fuzzers, the shrinker, and the
// corpus replayer). k_agreement_safety judges agreement(k), validity, and
// absence of aborts; dac_safety judges agreement, validity w.r.t.
// non-aborting proposers, and only-p-aborts.
SafetyPredicate k_agreement_safety(int k, std::vector<Value> inputs);
SafetyPredicate dac_safety(int distinguished_pid, std::vector<Value> inputs);

// Fuzzes the safety half of k-set agreement (agreement, validity, no
// aborts). Termination is NOT judged (randomized runs can time out
// legitimately); runs_terminated reports how many finished.
FuzzReport fuzz_k_agreement(std::shared_ptr<const sim::Protocol> protocol,
                            int k, const std::vector<Value>& inputs,
                            const FuzzOptions& options = {});

// Fuzzes the safety half of n-DAC (agreement, validity w.r.t. non-aborting
// proposers, only-p-aborts).
FuzzReport fuzz_dac(std::shared_ptr<const sim::Protocol> protocol,
                    int distinguished_pid, const std::vector<Value>& inputs,
                    const FuzzOptions& options = {});

// Fuzzes an arbitrary safety predicate (the engine under the two wrappers).
FuzzReport fuzz_safety(std::shared_ptr<const sim::Protocol> protocol,
                       const SafetyPredicate& judge,
                       const FuzzOptions& options = {});

}  // namespace lbsa::modelcheck

#endif  // LBSA_MODELCHECK_FUZZ_H_
