// Versioned binary checkpoints for long-running checks.
//
// A checkpoint snapshots an exploration (or fuzz campaign) at a quiescent
// point — a BFS level boundary, or a fuzz run boundary — with everything
// needed to resume later and finish with a result provably identical to an
// uninterrupted run:
//
//   * ExploreCheckpoint — the canonical partial graph as ConfigGraph holds
//     it (each node's intern key, discovery permutation and edge list), the
//     explicit next-level frontier, and the run parameters that shape the
//     graph. Parents and depths are not stored: resume derives them from
//     the edges.
//   * FuzzCheckpoint — the coverage-guided fuzzer's RNG stream position,
//     global fingerprint set, interesting-schedule pool, aggregate
//     counters, and raw (unshrunk) violations.
//
// Every file carries a schema version and a run *fingerprint* (a hash of
// the protocol's initial configuration and the graph-shaping options), so a
// checkpoint replayed against the wrong task, reduction, or budget is
// rejected with FAILED_PRECONDITION and a message naming the mismatch
// instead of silently producing a wrong graph. Corruption (bad magic,
// truncation, checksum mismatch, malformed payload) is INVALID_ARGUMENT.
//
// On-disk format: a stream of little-endian int64 words —
//   [magic, schema version, payload word count, payload hash, payload...]
// — written atomically through obs::write_text_file (a uniquely named temp
// file in the same directory, then a rename), so a crash mid-write never
// leaves a half-written checkpoint at the target path. The payload hash is
// hash_words over the payload, making bit rot and truncation detectable
// without trusting any payload field. Byte runs (keys, permutations) are
// their length, then their bytes packed 8 to a word.
#ifndef LBSA_MODELCHECK_CHECKPOINT_H_
#define LBSA_MODELCHECK_CHECKPOINT_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "base/status.h"
#include "modelcheck/explorer.h"
#include "modelcheck/fuzz.h"
#include "sim/protocol.h"

namespace lbsa::modelcheck {

// Each kind carries its own schema version: bump it when that kind's
// serialized layout changes; readers reject versions they cannot read.
// Explore schema 3 stores each node as its intern key, its discovery perm
// and its edges [to, pid, kind, to_pid]; schema 2 stored the configuration
// as words, with the node's flag, depth, parent and parent step, and
// schema 1 also lacked to_pid.
inline constexpr std::uint32_t kExploreCheckpointSchemaVersion = 3;
// Fuzz schema 3 keeps the layout of schemas 1 and 2 but stores the
// coverage set as Config::hash() values, a sum of per-component hashes;
// schemas 1 and 2 stored hash_words of the whole encoding, which a resumed
// campaign cannot compare with, so they are rejected.
inline constexpr std::uint32_t kFuzzCheckpointSchemaVersion = 3;

// One run of T per node, stored flat: run i is
// items[offsets[i], offsets[i + 1]).
template <typename T>
struct NodeRuns {
  std::vector<T> items;
  std::vector<std::uint64_t> offsets{0};

  std::size_t size() const { return offsets.size() - 1; }
  bool empty() const { return size() == 0; }
  std::span<const T> operator[](std::size_t i) const {
    return {items.data() + offsets[i], items.data() + offsets[i + 1]};
  }
  void push_back(std::span<const T> run) {
    items.insert(items.end(), run.begin(), run.end());
    offsets.push_back(items.size());
  }
};

// A paused exploration: the canonical graph prefix (every node of depth
// < levels_completed expanded; frontier = the depth-levels_completed
// nodes, unexpanded, in canonical id order) plus the options that shaped
// it. Node ids in `frontier` and `edges` index the node runs.
struct ExploreCheckpoint {
  // --- identity ---
  // Hash of the initial configuration and every graph-shaping option; see
  // explore_fingerprint(). Engine/thread choices are deliberately excluded
  // (the graph is invariant to them), so a checkpoint written by the serial
  // engine resumes under the parallel one and vice versa.
  std::uint64_t fingerprint = 0;
  // Informative label (task name) for error messages; not validated.
  std::string task_label;

  // --- run parameters (echoed for error messages; fingerprint-protected) ---
  Reduction reduction = Reduction::kNone;
  std::int64_t initial_flag = 0;
  bool has_flag_fn = false;
  std::uint64_t max_nodes = 0;
  bool allow_truncation = false;

  // --- progress ---
  bool truncated = false;
  // Every node with depth < levels_completed has been expanded (or hit the
  // truncation budget and is permanently non-expandable); no node is
  // deeper than levels_completed.
  std::uint32_t levels_completed = 0;

  // --- the canonical partial graph (one run per node) ---
  // ConfigGraph::key(): the packed path flag, then the packed
  // configuration encoding.
  NodeRuns<std::uint8_t> keys;
  // ConfigGraph::discovery_perm(); no runs without symmetry reduction.
  NodeRuns<std::uint8_t> discovery_perms;
  // ConfigGraph::edges(). Node i's discovering edge is the first edge, in
  // id-then-edge order, that reaches it.
  NodeRuns<Edge> edges;

  // Node ids awaiting expansion (ascending). Nodes past the truncation
  // budget are NOT listed: they are never expanded.
  std::vector<std::uint32_t> frontier;
};

// A paused coverage-guided fuzz campaign, snapshotted between runs and
// before any of the next run's RNG draws. Violations are stored raw;
// shrinking runs once, at campaign end, so a resumed report is
// byte-identical to an uninterrupted one.
struct FuzzCheckpoint {
  std::uint64_t fingerprint = 0;  // see fuzz_fingerprint()
  std::string task_label;

  std::uint64_t runs_completed = 0;
  std::array<std::uint64_t, 4> rng_state{};

  // Global coverage set of Config::hash() values, sorted ascending (only
  // membership matters; sorting makes the file deterministic).
  std::vector<std::uint64_t> global_fingerprints;
  // Interesting-schedule pool in eviction order (oldest first).
  std::vector<std::string> pool;

  // Aggregate counters so far.
  std::uint64_t runs_terminated = 0;
  std::uint64_t interesting_runs = 0;
  std::uint64_t mutated_runs = 0;

  struct RawViolation {
    std::string property;
    std::string detail;
    std::uint64_t run_seed = 0;
    std::string schedule;
    std::uint64_t raw_steps = 0;
  };
  std::vector<RawViolation> violations;
};

// Fingerprint of everything that shapes an exploration's graph: the
// protocol's initial configuration and process count, reduction mode,
// flag-function presence and initial flag, node budget and truncation
// policy. Excludes threads/engine (graph-invariant).
std::uint64_t explore_fingerprint(const sim::Protocol& protocol,
                                  const ExploreOptions& options,
                                  bool has_flag_fn, std::int64_t initial_flag);

// Fingerprint of everything that shapes a coverage-guided fuzz campaign's
// run stream: the protocol's initial configuration plus every FuzzOptions
// field that feeds the RNG-driven loop.
std::uint64_t fuzz_fingerprint(const sim::Protocol& protocol,
                               const FuzzOptions& options);

// FAILED_PRECONDITION if `cp` cannot resume a campaign shaped by `options`
// on `protocol`: blind engine requested, fingerprint mismatch (different
// task, seed, or campaign-shaping option), or a checkpoint claiming more
// completed runs than the budget allows.
Status validate_fuzz_resume(const sim::Protocol& protocol,
                            const FuzzOptions& options,
                            const FuzzCheckpoint& cp);

// Atomic write (obs::write_text_file). Errors are I/O only.
Status write_explore_checkpoint(const ExploreCheckpoint& checkpoint,
                                const std::string& path);
Status write_fuzz_checkpoint(const FuzzCheckpoint& checkpoint,
                             const std::string& path);

// INVALID_ARGUMENT on corruption (bad magic/size/checksum/payload) or a
// schema version the reader cannot read; NOT_FOUND if the file cannot be
// opened.
// Fingerprint checks happen at the point of use (explore()/fuzz), where the
// expected value is known, and yield FAILED_PRECONDITION.
StatusOr<ExploreCheckpoint> read_explore_checkpoint(const std::string& path);
StatusOr<FuzzCheckpoint> read_fuzz_checkpoint(const std::string& path);

}  // namespace lbsa::modelcheck

#endif  // LBSA_MODELCHECK_CHECKPOINT_H_
