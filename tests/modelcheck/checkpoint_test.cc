// Checkpoint/resume contract (modelcheck/checkpoint.h, docs/checking.md
// "Long runs"): on every small-enough corpus task,
//   * an exploration interrupted at a level boundary and resumed — under
//     either engine, any thread count, and every reduction mode — finishes
//     with a graph bit-identical to the uninterrupted run (including across
//     multiple interrupt/resume hops),
//   * a coverage-guided fuzz campaign interrupted at a run boundary and
//     resumed produces a byte-identical final report,
//   * stale checkpoints (wrong task, reduction, budget, seed) are rejected
//     with FAILED_PRECONDITION naming the mismatch, and corrupt files (bad
//     magic, bit rot, truncation, an old or future schema) with
//     INVALID_ARGUMENT — never a silently wrong graph,
//   * cancellation and deadlines interrupt cleanly: the partial graph is the
//     exact prefix of the uninterrupted exploration.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph_testing.h"
#include "modelcheck/cancel.h"
#include "modelcheck/checkpoint.h"
#include "modelcheck/corpus.h"
#include "modelcheck/explorer.h"
#include "modelcheck/fuzz.h"
#include "sim/symmetry.h"

namespace lbsa::modelcheck {
namespace {

constexpr Reduction kAllModes[] = {Reduction::kNone, Reduction::kSymmetry,
                                   Reduction::kPor, Reduction::kBoth};

// Tasks small enough to explore exhaustively many times in a test.
const char* kGraphTasks[] = {"dac3-sym", "dac4-sym", "consensus4-sym",
                             "mutant-dac-no-adopt3-sym", "strawdac3"};

NamedTask get_task(const std::string& name) {
  auto task = make_named_task(name);
  EXPECT_TRUE(task.is_ok()) << task.status().to_string();
  return task.value();
}

ConfigGraph explore_or_die(const NamedTask& task, const ExploreOptions& opts) {
  Explorer explorer(task.protocol);
  auto graph = explorer.explore(opts);
  EXPECT_TRUE(graph.is_ok()) << graph.status().to_string();
  return std::move(graph).value();
}

// `runs` with run i replaced by `run`.
template <typename T>
NodeRuns<T> with_run(const NodeRuns<T>& runs, std::size_t i,
                     std::span<const T> run) {
  NodeRuns<T> out;
  for (std::size_t j = 0; j < runs.size(); ++j) {
    out.push_back(j == i ? run : runs[j]);
  }
  return out;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// Interrupts `task` after `levels` BFS levels (serial engine, checkpoint to
// disk), then reads the checkpoint back. The interrupted graph must be a
// valid prefix: every array sized consistently, frontier nonempty unless
// exploration happened to finish.
ExploreCheckpoint interrupt_and_read(const NamedTask& task, Reduction red,
                                     std::uint32_t levels,
                                     const std::string& path) {
  ExploreOptions opts;
  opts.reduction = red;
  opts.max_levels = levels;
  opts.checkpoint_path = path;
  opts.checkpoint_label = task.name;
  const ConfigGraph partial = explore_or_die(task, opts);
  EXPECT_TRUE(partial.interrupted());
  EXPECT_EQ(partial.levels_completed(), levels);
  EXPECT_FALSE(partial.pending_frontier().empty());
  auto cp = read_explore_checkpoint(path);
  EXPECT_TRUE(cp.is_ok()) << cp.status().to_string();
  EXPECT_EQ(cp.value().levels_completed, levels);
  EXPECT_EQ(cp.value().frontier, partial.pending_frontier());
  return std::move(cp).value();
}

// Writes `bad` to disk, reads it back and resumes `task` from it: resume
// must fail with INVALID_ARGUMENT, naming `what` in its message.
void expect_resume_rejected(const NamedTask& task, const ExploreCheckpoint& bad,
                            const std::string& what) {
  SCOPED_TRACE(what);
  const std::string path = temp_path("rejected.ckpt");
  ASSERT_TRUE(write_explore_checkpoint(bad, path).is_ok());
  auto read = read_explore_checkpoint(path);
  ASSERT_TRUE(read.is_ok()) << read.status().to_string();
  ExploreOptions opts;
  opts.reduction = bad.reduction;
  opts.resume = &read.value();
  const auto resumed = Explorer(task.protocol).explore(opts);
  EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument)
      << resumed.status().to_string();
  EXPECT_NE(resumed.status().message().find(what), std::string::npos)
      << resumed.status().to_string();
}

TEST(Checkpoint, ResumeBitIdenticalAcrossEnginesThreadsAndReductions) {
  for (const char* name : kGraphTasks) {
    SCOPED_TRACE(name);
    const NamedTask task = get_task(name);
    for (Reduction reduction : kAllModes) {
      SCOPED_TRACE(reduction_name(reduction));
      ExploreOptions base;
      base.reduction = reduction;
      const ConfigGraph uninterrupted = explore_or_die(task, base);

      const std::string path = temp_path("resume.ckpt");
      const ExploreCheckpoint cp =
          interrupt_and_read(task, reduction, 2, path);

      // Serial resume.
      {
        ExploreOptions opts;
        opts.reduction = reduction;
        opts.resume = &cp;
        const ConfigGraph resumed = explore_or_die(task, opts);
        EXPECT_FALSE(resumed.interrupted());
        expect_same_graph(uninterrupted, resumed);
      }
      // Parallel resume at several thread counts.
      for (int threads : {1, 2, 8}) {
        SCOPED_TRACE(threads);
        ExploreOptions opts;
        opts.reduction = reduction;
        opts.engine = ExploreEngine::kParallel;
        opts.threads = threads;
        opts.resume = &cp;
        const ConfigGraph resumed = explore_or_die(task, opts);
        EXPECT_FALSE(resumed.interrupted());
        expect_same_graph(uninterrupted, resumed);
      }
    }
  }
}

TEST(Checkpoint, MultiHopResumeBitIdentical) {
  const NamedTask task = get_task("dac4-sym");
  const ConfigGraph uninterrupted = explore_or_die(task, {});

  // Hop 1: explore 1 level, checkpoint. Hop 2: resume, 2 more levels,
  // checkpoint again. Hop 3: resume to completion.
  const std::string path = temp_path("multihop.ckpt");
  const ExploreCheckpoint hop1 =
      interrupt_and_read(task, Reduction::kNone, 1, path);

  ExploreOptions mid;
  mid.resume = &hop1;
  mid.max_levels = 2;
  mid.checkpoint_path = path;
  const ConfigGraph partial = explore_or_die(task, mid);
  ASSERT_TRUE(partial.interrupted());
  EXPECT_EQ(partial.levels_completed(), 3u);  // 1 from hop1 + 2 this session

  auto hop2 = read_explore_checkpoint(path);
  ASSERT_TRUE(hop2.is_ok()) << hop2.status().to_string();
  EXPECT_EQ(hop2.value().levels_completed, 3u);

  ExploreOptions fin;
  fin.resume = &hop2.value();
  const ConfigGraph resumed = explore_or_die(task, fin);
  EXPECT_FALSE(resumed.interrupted());
  expect_same_graph(uninterrupted, resumed);
}

TEST(Checkpoint, PeriodicCheckpointFromParallelEngineResumes) {
  const NamedTask task = get_task("dac3-sym");
  const ConfigGraph uninterrupted = explore_or_die(task, {});

  // Run the parallel engine to completion with periodic checkpoints: the
  // last periodic snapshot left on disk must itself be resumable.
  const std::string path = temp_path("periodic.ckpt");
  ExploreOptions opts;
  opts.engine = ExploreEngine::kParallel;
  opts.threads = 4;
  opts.checkpoint_path = path;
  opts.checkpoint_every_levels = 2;
  const ConfigGraph full = explore_or_die(task, opts);
  EXPECT_FALSE(full.interrupted());
  expect_same_graph(uninterrupted, full);

  auto cp = read_explore_checkpoint(path);
  ASSERT_TRUE(cp.is_ok()) << cp.status().to_string();
  ExploreOptions res;
  res.resume = &cp.value();
  const ConfigGraph resumed = explore_or_die(task, res);
  expect_same_graph(uninterrupted, resumed);
}

TEST(Checkpoint, TruncatedExplorationResumes) {
  const NamedTask task = get_task("dac3-sym");
  ExploreOptions base;
  base.max_nodes = 60;
  base.allow_truncation = true;
  const ConfigGraph truncated = explore_or_die(task, base);
  ASSERT_TRUE(truncated.truncated());

  ExploreOptions part = base;
  part.max_levels = 2;
  part.checkpoint_path = temp_path("trunc.ckpt");
  const ConfigGraph partial = explore_or_die(task, part);
  ASSERT_TRUE(partial.interrupted());

  auto cp = read_explore_checkpoint(part.checkpoint_path);
  ASSERT_TRUE(cp.is_ok()) << cp.status().to_string();
  ExploreOptions res = base;
  res.resume = &cp.value();
  const ConfigGraph resumed = explore_or_die(task, res);
  expect_same_graph(truncated, resumed);
}

TEST(Checkpoint, StaleCheckpointRejectedWithNamedMismatch) {
  const NamedTask task = get_task("dac3-sym");
  const std::string path = temp_path("stale.ckpt");
  const ExploreCheckpoint cp =
      interrupt_and_read(task, Reduction::kSymmetry, 1, path);

  // Wrong task entirely.
  {
    const NamedTask other = get_task("strawdac3");
    Explorer explorer(other.protocol);
    ExploreOptions opts;
    opts.reduction = Reduction::kSymmetry;
    opts.resume = &cp;
    auto graph = explorer.explore(opts);
    ASSERT_FALSE(graph.is_ok());
    EXPECT_EQ(graph.status().code(), StatusCode::kFailedPrecondition);
  }
  // Same task, wrong reduction: the error names the knob and both values.
  {
    Explorer explorer(task.protocol);
    ExploreOptions opts;
    opts.reduction = Reduction::kBoth;
    opts.resume = &cp;
    auto graph = explorer.explore(opts);
    ASSERT_FALSE(graph.is_ok());
    EXPECT_EQ(graph.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(graph.status().message().find("reduction"), std::string::npos)
        << graph.status().to_string();
  }
  // Same task, different node budget.
  {
    Explorer explorer(task.protocol);
    ExploreOptions opts;
    opts.reduction = Reduction::kSymmetry;
    opts.max_nodes = 123;
    opts.allow_truncation = true;
    opts.resume = &cp;
    auto graph = explorer.explore(opts);
    ASSERT_FALSE(graph.is_ok());
    EXPECT_EQ(graph.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(graph.status().message().find("node budget"), std::string::npos)
        << graph.status().to_string();
  }
}

TEST(Checkpoint, CorruptFilesRejected) {
  const NamedTask task = get_task("dac3-sym");
  const std::string path = temp_path("corrupt.ckpt");
  (void)interrupt_and_read(task, Reduction::kNone, 1, path);

  auto slurp = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  auto spit = [](const std::string& p, const std::string& bytes) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  const std::string good = slurp(path);
  ASSERT_GT(good.size(), 64u);

  // Missing file.
  EXPECT_EQ(read_explore_checkpoint(temp_path("nope.ckpt")).status().code(),
            StatusCode::kNotFound);

  // Truncated file.
  spit(path, good.substr(0, good.size() / 2));
  EXPECT_EQ(read_explore_checkpoint(path).status().code(),
            StatusCode::kInvalidArgument);

  // Flipped payload bit -> checksum mismatch.
  {
    std::string bad = good;
    bad[bad.size() - 3] ^= 0x40;
    spit(path, bad);
    EXPECT_EQ(read_explore_checkpoint(path).status().code(),
              StatusCode::kInvalidArgument);
  }
  // Bad magic (also: an explore checkpoint is not a fuzz checkpoint).
  {
    std::string bad = good;
    bad[0] ^= 0xFF;
    spit(path, bad);
    EXPECT_EQ(read_explore_checkpoint(path).status().code(),
              StatusCode::kInvalidArgument);
    spit(path, good);
    EXPECT_EQ(read_fuzz_checkpoint(path).status().code(),
              StatusCode::kInvalidArgument);
  }
  // Future schema version: the error names it so the user knows to upgrade.
  {
    std::string bad = good;
    bad[8] = static_cast<char>(kExploreCheckpointSchemaVersion + 1);
    spit(path, bad);
    const auto status = read_explore_checkpoint(path).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("version"), std::string::npos)
        << status.to_string();
  }
  // Schema 1, whose edges carry no to_pid, and schema 2, which stored
  // configurations as words with depths, parents and parent steps: each is
  // rejected by its version, not misread as schema 3.
  for (const char version : {1, 2}) {
    std::string bad = good;
    bad[8] = version;
    spit(path, bad);
    const auto status = read_explore_checkpoint(path).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("schema version " +
                                    std::to_string(int{version})),
              std::string::npos)
        << status.to_string();
  }
}

// An edge's to_pid names the stepping process in the target's stored
// configuration, and the solo-termination walk follows it. Resume accepts
// only a pid of the process count, equal to the edge's pid without
// symmetry reduction, and in the pid's orbit with it.
TEST(Checkpoint, ResumeRejectsEdgeToPidsThatAreNoRenaming) {
  auto expect_rejected = [](const NamedTask& task,
                            const ExploreCheckpoint& good, std::uint16_t pid,
                            std::uint16_t to_pid, const char* what) {
    SCOPED_TRACE(what);
    // The first edge by `pid`, retargeted to `to_pid`.
    ExploreCheckpoint bad = good;
    bool found = false;
    for (std::size_t id = 0; id < good.edges.size() && !found; ++id) {
      std::vector<Edge> out(good.edges[id].begin(), good.edges[id].end());
      for (Edge& e : out) {
        if (e.pid != pid) continue;
        e.to_pid = to_pid;
        bad.edges = with_run(good.edges, id, std::span<const Edge>(out));
        found = true;
        break;
      }
    }
    ASSERT_TRUE(found) << "no edge by p" << pid;
    const std::string path = temp_path("bad-to-pid.ckpt");
    ASSERT_TRUE(write_explore_checkpoint(bad, path).is_ok());
    auto read = read_explore_checkpoint(path);
    ASSERT_TRUE(read.is_ok()) << read.status().to_string();
    ExploreOptions opts;
    opts.reduction = bad.reduction;
    opts.resume = &read.value();
    const auto resumed = Explorer(task.protocol).explore(opts);
    EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument)
        << resumed.status().to_string();
    EXPECT_NE(resumed.status().message().find("to_pid"), std::string::npos)
        << resumed.status().to_string();
  };

  const NamedTask dac3 = get_task("dac3-sym");
  const ExploreCheckpoint plain = interrupt_and_read(
      dac3, Reduction::kNone, 2, temp_path("plain-to-pid.ckpt"));
  ASSERT_TRUE(plain.discovery_perms.empty());
  expect_rejected(dac3, plain, 1, 3, "to_pid >= n");
  expect_rejected(dac3, plain, 1, 2, "renamed without symmetry reduction");

  // dac4-sym: p0 is distinguished, p1..p3 one orbit.
  const NamedTask dac4 = get_task("dac4-sym");
  const sim::SymmetrySpec spec = dac4.protocol->symmetry();
  ASSERT_TRUE(spec.is_singleton(0));
  ASSERT_TRUE(spec.orbit_of[1] == spec.orbit_of[2] &&
              spec.orbit_of[2] == spec.orbit_of[3]);
  const ExploreCheckpoint quotient = interrupt_and_read(
      dac4, Reduction::kSymmetry, 2, temp_path("quotient-to-pid.ckpt"));
  ASSERT_FALSE(quotient.discovery_perms.empty());
  expect_rejected(dac4, quotient, 1, 4, "to_pid >= n, quotient");
  expect_rejected(dac4, quotient, 1, 0, "to_pid outside pid's orbit");
  expect_rejected(dac4, quotient, 0, 2, "p0 renamed into another orbit");

  // Unmodified, both resume.
  for (const auto& [task, cp] : {std::pair{&dac3, &plain},
                                 std::pair{&dac4, &quotient}}) {
    ExploreOptions opts;
    opts.reduction = cp->reduction;
    opts.resume = cp;
    EXPECT_TRUE(Explorer(task->protocol).explore(opts).is_ok());
  }
}

// Regression: the reader checks only that each discovery-perm element is a
// byte, and resume used to check neither the perms nor the edge pids. A
// well-formed file with a perm that is not a permutation of the processes,
// or with edges whose pids interleave, resumed fine and then crashed or
// misled path_to() (heap corruption, a wrong outcome replayed, or an abort
// on an internal check). Resume now rejects both with INVALID_ARGUMENT.
TEST(Checkpoint, ResumeRejectsBadPermsAndParentPids) {
  const NamedTask task = get_task("dac3-sym");
  const std::string path = temp_path("bad-perm.ckpt");
  const ExploreCheckpoint good =
      interrupt_and_read(task, Reduction::kSymmetry, 3, path);
  ASSERT_GT(good.discovery_perms.size(), 2u);
  for (const std::vector<std::uint8_t>& perm :
       {std::vector<std::uint8_t>{7, 7, 7}, std::vector<std::uint8_t>{0, 0, 1},
        std::vector<std::uint8_t>{1, 0}, std::vector<std::uint8_t>{}}) {
    ExploreCheckpoint bad = good;
    bad.discovery_perms = with_run(good.discovery_perms, 2,
                                   std::span<const std::uint8_t>(perm));
    expect_resume_rejected(task, bad, "not a permutation");
  }
  {
    // One node's edges with pids interleaved (p, q, p): an edge's outcome
    // index is its position in its pid's run, so replay would take the
    // wrong outcome. dac3-sym's steps each have one outcome; a 2-SA
    // proposal has several.
    const NamedTask branching = get_task("mutant-2sa4");
    const ExploreCheckpoint ordered = interrupt_and_read(
        branching, Reduction::kNone, 3, temp_path("interleaved.ckpt"));
    ExploreCheckpoint bad = ordered;
    bool interleaved = false;
    for (std::size_t id = 0; id < ordered.edges.size() && !interleaved; ++id) {
      std::vector<Edge> out(ordered.edges[id].begin(),
                            ordered.edges[id].end());
      for (std::size_t e = 0; e + 2 < out.size(); ++e) {
        if (out[e].pid == out[e + 1].pid && out[e + 1].pid != out[e + 2].pid) {
          std::swap(out[e + 1], out[e + 2]);
          bad.edges = with_run(ordered.edges, id, std::span<const Edge>(out));
          interleaved = true;
          break;
        }
      }
    }
    ASSERT_TRUE(interleaved) << "no step with two outcomes before another pid";
    expect_resume_rejected(branching, bad, "not ordered by pid");
    ExploreOptions opts;
    opts.resume = &ordered;
    EXPECT_TRUE(Explorer(branching.protocol).explore(opts).is_ok());
  }
  // The untouched checkpoint still resumes.
  ExploreOptions opts;
  opts.reduction = Reduction::kSymmetry;
  opts.resume = &good;
  EXPECT_TRUE(Explorer(task.protocol).explore(opts).is_ok());
}

// Resume derives each node's parent, discovering edge and depth from the
// edges alone: node i's discovering edge is the first edge, in id-then-edge
// order, that reaches it. A file whose first reaches name a later node
// before an earlier one, that leaves a node unreached, or whose key does not
// decode is INVALID_ARGUMENT, never an aborted check.
TEST(Checkpoint, ResumeRejectsMisnumberedUnreachedAndUndecodableNodes) {
  const NamedTask task = get_task("dac3");
  const ExploreCheckpoint good = interrupt_and_read(
      task, Reduction::kNone, 3, temp_path("bad-derivation.ckpt"));
  {
    // The root's first two edges discover nodes 1 and 2. With their targets
    // swapped, node 2 is reached first.
    const std::span<const Edge> root = good.edges[0];
    ASSERT_GE(root.size(), 2u);
    ASSERT_EQ(root[0].to, 1u);
    ASSERT_EQ(root[1].to, 2u);
    std::vector<Edge> out(root.begin(), root.end());
    std::swap(out[0].to, out[1].to);
    ExploreCheckpoint bad = good;
    bad.edges = with_run(good.edges, 0, std::span<const Edge>(out));
    expect_resume_rejected(task, bad, "node 2 is reached before node 1");
  }
  {
    // Every edge into the last node redirected to the root.
    const std::size_t last = good.keys.size() - 1;
    ExploreCheckpoint bad = good;
    bad.edges = {};
    for (std::size_t id = 0; id < good.edges.size(); ++id) {
      std::vector<Edge> out(good.edges[id].begin(), good.edges[id].end());
      for (Edge& e : out) {
        if (e.to == last) e.to = 0;
      }
      bad.edges.push_back(out);
    }
    expect_resume_rejected(task, bad,
                           "no edge reaches node " + std::to_string(last));
  }
  {
    // Node 1's key with its flag varint cut short, and with its last
    // configuration byte cut off.
    ExploreCheckpoint bad = good;
    const std::vector<std::uint8_t> cut_flag{0x80};
    bad.keys = with_run(good.keys, 1, std::span<const std::uint8_t>(cut_flag));
    expect_resume_rejected(task, bad, "has no path flag");
    const std::span<const std::uint8_t> key = good.keys[1];
    bad.keys = with_run(good.keys, 1, key.first(key.size() - 1));
    expect_resume_rejected(task, bad, "decode_packed_config_into");
  }
  // The untouched checkpoint still resumes.
  ExploreOptions opts;
  opts.resume = &good;
  EXPECT_TRUE(Explorer(task.protocol).explore(opts).is_ok());
}

TEST(Checkpoint, CancelAndDeadlineInterruptBothEngines) {
  const NamedTask task = get_task("dac4-sym");
  const ConfigGraph uninterrupted = explore_or_die(task, {});

  for (const auto engine :
       {ExploreEngine::kSerial, ExploreEngine::kParallel}) {
    SCOPED_TRACE(engine == ExploreEngine::kSerial ? "serial" : "parallel");
    // A pre-tripped token stops at the first level boundary.
    CancelToken cancel;
    cancel.cancel();
    ExploreOptions opts;
    opts.engine = engine;
    opts.threads = engine == ExploreEngine::kParallel ? 4 : 1;
    opts.cancel = &cancel;
    const ConfigGraph partial = explore_or_die(task, opts);
    ASSERT_TRUE(partial.interrupted());
    ASSERT_LT(partial.node_count(), uninterrupted.node_count());
    // The partial graph is the exact prefix of the uninterrupted one.
    for (std::uint32_t id = 0; id < partial.node_count(); ++id) {
      ASSERT_TRUE(std::ranges::equal(partial.key(id), uninterrupted.key(id)))
          << "prefix mismatch at node " << id;
    }

    // An already-expired deadline behaves the same.
    ExploreOptions late;
    late.engine = opts.engine;
    late.threads = opts.threads;
    late.deadline = std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(1);
    const ConfigGraph timed_out = explore_or_die(task, late);
    EXPECT_TRUE(timed_out.interrupted());
  }
}

TEST(FuzzCheckpoint, ResumedCampaignReportByteIdentical) {
  // strawdac3 is broken (violations arrive throughout the campaign), so
  // this checks that violations found before AND after the interrupt, the
  // coverage pool, and the RNG stream all survive the round trip.
  for (const char* name : {"strawdac3", "dac3"}) {
    SCOPED_TRACE(name);
    const NamedTask task = get_task(name);
    FuzzOptions base;
    base.coverage_guided = true;
    base.runs = 300;
    base.seed = 11;
    base.max_violations = 6;
    const FuzzReport full = fuzz_named_task(task, base);

    FuzzOptions part = base;
    part.stop_after_runs = 2;
    part.checkpoint_path = temp_path("fuzz.ckpt");
    part.checkpoint_label = name;
    const FuzzReport partial = fuzz_named_task(task, part);
    if (!partial.interrupted) {
      // The campaign hit max_violations before the stop point; nothing to
      // resume (no checkpoint guaranteed). Still a valid complete report.
      EXPECT_EQ(partial.violations.size(),
                static_cast<std::size_t>(base.max_violations));
      continue;
    }
    EXPECT_TRUE(partial.checkpoint_error.empty())
        << partial.checkpoint_error;

    auto cp = read_fuzz_checkpoint(part.checkpoint_path);
    ASSERT_TRUE(cp.is_ok()) << cp.status().to_string();
    FuzzOptions res = base;
    res.resume = &cp.value();
    ASSERT_TRUE(
        validate_fuzz_resume(*task.protocol, res, cp.value()).is_ok());
    const FuzzReport resumed = fuzz_named_task(task, res);

    EXPECT_FALSE(resumed.interrupted);
    EXPECT_EQ(resumed.runs_executed, full.runs_executed);
    EXPECT_EQ(resumed.runs_terminated, full.runs_terminated);
    EXPECT_EQ(resumed.distinct_fingerprints, full.distinct_fingerprints);
    EXPECT_EQ(resumed.interesting_runs, full.interesting_runs);
    EXPECT_EQ(resumed.mutated_runs, full.mutated_runs);
    ASSERT_EQ(resumed.violations.size(), full.violations.size());
    for (std::size_t i = 0; i < full.violations.size(); ++i) {
      EXPECT_EQ(resumed.violations[i].property, full.violations[i].property);
      EXPECT_EQ(resumed.violations[i].detail, full.violations[i].detail);
      EXPECT_EQ(resumed.violations[i].run_seed, full.violations[i].run_seed);
      EXPECT_EQ(resumed.violations[i].schedule, full.violations[i].schedule);
      EXPECT_EQ(resumed.violations[i].shrunk_schedule,
                full.violations[i].shrunk_schedule);
    }
  }
}

// Every field of a fuzz report in one string, so two reports compare byte
// for byte.
std::string report_text(const FuzzReport& r) {
  std::string out = std::to_string(r.runs_executed) + " " +
                    std::to_string(r.runs_terminated) + " " +
                    std::to_string(r.seed) + " " + r.engine + " " +
                    std::to_string(r.threads) + " " +
                    std::to_string(r.distinct_fingerprints) + " " +
                    std::to_string(r.interesting_runs) + " " +
                    std::to_string(r.mutated_runs) + " " +
                    std::to_string(r.shrink_replays) + " " +
                    (r.interrupted ? "interrupted" : "complete") + " [" +
                    r.checkpoint_error + "]\n";
  for (const FuzzViolation& v : r.violations) {
    out += v.property + "|" + v.detail + "|" + std::to_string(v.run_seed) +
           "|" + v.schedule + "|" + v.shrunk_schedule + "|" +
           std::to_string(v.raw_steps) + "|" +
           std::to_string(v.shrunk_steps) + "\n";
  }
  return out;
}

TEST(FuzzCheckpoint, SchemaOneFileResumesByteIdentical) {
  // Fuzz files said schema version 1 until explore checkpoints moved to
  // schema 2. The fuzz layout never changed, so such a file still resumes,
  // to the uninterrupted run's report.
  const NamedTask task = get_task("dac3");
  FuzzOptions base;
  base.coverage_guided = true;
  base.runs = 300;
  base.seed = 9;
  const FuzzReport full = fuzz_named_task(task, base);

  FuzzOptions part = base;
  part.stop_after_runs = 100;
  part.checkpoint_path = temp_path("v1-fuzz.ckpt");
  ASSERT_TRUE(fuzz_named_task(task, part).interrupted);
  std::string bytes;
  {
    std::ifstream in(part.checkpoint_path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 32u);
  ASSERT_EQ(bytes[8], static_cast<char>(kFuzzCheckpointSchemaVersion));
  // Byte 8 is the low byte of the little-endian version word; the header
  // lies outside the payload hash.
  const auto with_version = [&](char version) {
    std::string patched = bytes;
    patched[8] = version;
    std::ofstream out(part.checkpoint_path, std::ios::binary | std::ios::trunc);
    out.write(patched.data(), static_cast<std::streamsize>(patched.size()));
  };

  with_version(1);
  auto cp = read_fuzz_checkpoint(part.checkpoint_path);
  ASSERT_TRUE(cp.is_ok()) << cp.status().to_string();
  FuzzOptions res = base;
  res.resume = &cp.value();
  ASSERT_TRUE(validate_fuzz_resume(*task.protocol, res, cp.value()).is_ok());
  EXPECT_EQ(report_text(fuzz_named_task(task, res)), report_text(full));

  with_version(3);
  const auto future = read_fuzz_checkpoint(part.checkpoint_path);
  ASSERT_FALSE(future.is_ok());
  EXPECT_EQ(future.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(future.status().message().find("schema version 3"),
            std::string::npos)
      << future.status().to_string();
}

TEST(FuzzCheckpoint, StaleFuzzCheckpointRejected) {
  const NamedTask task = get_task("dac3");
  FuzzOptions opts;
  opts.coverage_guided = true;
  opts.runs = 100;
  opts.seed = 5;
  opts.stop_after_runs = 10;
  opts.checkpoint_path = temp_path("stale-fuzz.ckpt");
  const FuzzReport partial = fuzz_named_task(task, opts);
  ASSERT_TRUE(partial.interrupted);

  auto cp = read_fuzz_checkpoint(opts.checkpoint_path);
  ASSERT_TRUE(cp.is_ok()) << cp.status().to_string();

  // Different seed -> different campaign.
  FuzzOptions wrong_seed = opts;
  wrong_seed.stop_after_runs = 0;
  wrong_seed.checkpoint_path.clear();
  wrong_seed.seed = 6;
  EXPECT_EQ(
      validate_fuzz_resume(*task.protocol, wrong_seed, cp.value()).code(),
      StatusCode::kFailedPrecondition);

  // Blind engine cannot resume at all.
  FuzzOptions blind = opts;
  blind.stop_after_runs = 0;
  blind.checkpoint_path.clear();
  blind.coverage_guided = false;
  EXPECT_EQ(validate_fuzz_resume(*task.protocol, blind, cp.value()).code(),
            StatusCode::kFailedPrecondition);

  // Checkpoint claiming more runs than the budget.
  FuzzOptions small = opts;
  small.stop_after_runs = 0;
  small.checkpoint_path.clear();
  small.runs = 5;
  EXPECT_EQ(validate_fuzz_resume(*task.protocol, small, cp.value()).code(),
            StatusCode::kFailedPrecondition);

  // A schedule that does not parse, in the pool or in a violation: the
  // fingerprint still matches, so only the reader can reject it (a resumed
  // campaign used to abort on it).
  const auto expect_read_rejects = [&](const FuzzCheckpoint& bad,
                                       const std::string& field) {
    const std::string path = temp_path("bad-schedule-fuzz.ckpt");
    ASSERT_TRUE(write_fuzz_checkpoint(bad, path).is_ok());
    const auto read = read_fuzz_checkpoint(path);
    ASSERT_FALSE(read.is_ok()) << field;
    EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(read.status().message().find(field), std::string::npos)
        << read.status().to_string();
  };
  FuzzCheckpoint bad_pool = cp.value();
  bad_pool.pool.push_back("this is not a schedule");
  expect_read_rejects(bad_pool, "pool schedule");
  FuzzCheckpoint bad_violation = cp.value();
  bad_violation.violations.push_back(
      {"agreement", "detail", 1, "this is not a schedule", 3});
  expect_read_rejects(bad_violation, "violation schedule");
}

// Regression: the BFS engines must poll cancellation and
// deadlines INSIDE per-worker expansion chunks, not just at level
// boundaries. Before the fix, a cancel landing mid-level ran to the end of
// the level — on a wide level, thousands of expansions after the request.
// The cancel is tripped from inside the run, so the test does not depend on
// thread scheduling: a flag function that returns its input unchanged
// counts its calls (one per emitted transition, in both engines) and
// cancels at a count that lies provably inside the widest level. The test
// then asserts the engine stopped well before finishing that level, AND
// that the rolled-back result is bit-identical to a fresh run stopped at
// the same level boundary.
TEST(Lifecycle, MidLevelCancelBoundsWorkAndRollsBackCleanly) {
  const NamedTask task = get_task("dac5");
  const ConfigGraph full = explore_or_die(task, {});

  // Transitions emitted by expanding each BFS level; pick the level whose
  // expansion emits the most — the widest window for a mid-level cancel.
  std::vector<std::uint64_t> level_calls;
  for (std::uint32_t id = 0; id < full.node_count(); ++id) {
    const std::uint32_t depth = full.depth(id);
    if (depth >= level_calls.size()) level_calls.resize(depth + 1, 0);
    level_calls[depth] += full.edges(id).size();
  }
  std::size_t widest = 0;
  for (std::size_t d = 0; d < level_calls.size(); ++d) {
    if (level_calls[d] > level_calls[widest]) widest = d;
  }
  std::uint64_t before = 0;  // flag-function calls when level `widest` opens
  for (std::size_t d = 0; d < widest; ++d) before += level_calls[d];
  const std::uint64_t yield = level_calls[widest];  // 21,017 on dac5
  // Cancel once exploration is provably inside the widest level.
  const std::uint64_t trip = before + 2000;
  // Calls tolerated after the cancel: the engines poll every kChunk (64)
  // expansions per worker, so each of the 4 workers finishes at most one
  // chunk of at most 5 transitions per node (dac5 has 5 processes) — 1,280
  // calls. The pre-fix engines ran to the end of the level — `yield` - 2000
  // more calls, an order of magnitude past this.
  const std::uint64_t kPostCancelSlack = 2500;
  ASSERT_GT(yield, trip - before + 4 * kPostCancelSlack)
      << "task too small to expose mid-level latency";

  for (const auto engine : {ExploreEngine::kSerial, ExploreEngine::kParallel}) {
    SCOPED_TRACE(static_cast<int>(engine));
    CancelToken cancel;
    std::atomic<std::uint64_t> calls{0};
    const Explorer::FlagFn cancel_inside_widest_level =
        [&](std::int64_t flag, const sim::Step&) {
          if (calls.fetch_add(1, std::memory_order_relaxed) + 1 == trip) {
            cancel.cancel();
          }
          return flag;
        };
    ExploreOptions opts;
    opts.engine = engine;
    opts.threads = engine == ExploreEngine::kSerial ? 1 : 4;
    opts.cancel = &cancel;
    Explorer explorer(task.protocol);
    auto partial_or = explorer.explore(opts, cancel_inside_widest_level);
    ASSERT_TRUE(partial_or.is_ok()) << partial_or.status().to_string();
    const ConfigGraph& partial = partial_or.value();
    ASSERT_TRUE(partial.interrupted());
    // The regression bite: a level-boundary-only poll keeps expanding until
    // the level is done. The fixed engines stop within a chunk per worker.
    const std::uint64_t total = calls.load();
    ASSERT_GE(total, trip);
    EXPECT_LE(total - trip, kPostCancelSlack)
        << "engine kept expanding a wide level after cancellation"
        << " (cancelled at call " << trip << ", final " << total << ")";

    // Rollback correctness: the interrupted graph is the exact result of
    // stopping at the same level boundary on purpose.
    ExploreOptions replay;
    replay.max_levels = partial.levels_completed();
    const ConfigGraph expected = explore_or_die(task, replay);
    ASSERT_TRUE(expected.interrupted());
    EXPECT_EQ(expected.levels_completed(), partial.levels_completed());
    expect_same_graph(partial, expected);
    EXPECT_EQ(partial.pending_frontier(), expected.pending_frontier());
  }
}

// Regression: checkpoint staging used a PREDICTABLE temp name
// (path + ".tmp"), so two writers targeting the same path could truncate
// each other's staging file or lose the rename race — a torn or missing
// checkpoint. Staging now carries a per-process + per-write unique suffix:
// every concurrent write must succeed and the surviving file must read
// back as one writer's complete checkpoint.
TEST(Checkpoint, ConcurrentWritersNeverTearTheFile) {
  const NamedTask task = get_task("dac3-sym");
  const std::string seed_path = temp_path("concurrent-seed.ckpt");
  ExploreCheckpoint cp =
      interrupt_and_read(task, Reduction::kNone, 2, seed_path);

  const std::string path = temp_path("concurrent-writers.ckpt");
  constexpr int kWriters = 8;
  constexpr int kWritesEach = 25;
  std::vector<Status> failures(kWriters, Status::ok());
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      // Distinct payloads per writer so a torn interleaving cannot pass as
      // a valid file by accident (the format is checksummed end to end).
      ExploreCheckpoint mine = cp;
      mine.task_label = "writer-" + std::to_string(w);
      for (int i = 0; i < kWritesEach; ++i) {
        const Status s = write_explore_checkpoint(mine, path);
        if (!s.is_ok()) {
          failures[w] = s;
          return;
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  for (int w = 0; w < kWriters; ++w) {
    EXPECT_TRUE(failures[w].is_ok())
        << "writer " << w << ": " << failures[w].to_string();
  }
  // The surviving file is some writer's complete, checksum-valid write.
  auto survivor = read_explore_checkpoint(path);
  ASSERT_TRUE(survivor.is_ok()) << survivor.status().to_string();
  EXPECT_EQ(survivor.value().task_label.rfind("writer-", 0), 0u);
  EXPECT_EQ(survivor.value().fingerprint, cp.fingerprint);
  EXPECT_EQ(survivor.value().frontier, cp.frontier);
}

// FNV-1a over a file's bytes: a digest written here, sharing no code with
// the checkpoint writer it pins.
std::uint64_t fnv1a_file(const std::string& path, std::uint64_t* size) {
  std::ifstream in(path, std::ios::binary);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  *size = 0;
  for (char c; in.get(c); ++*size) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

// The explore checkpoint format, pinned: four interrupted explorations
// write files whose bytes must match digests recorded when the format was
// last meant to change. A change to how nodes are stored in memory (their
// intern keys) must leave every file byte-identical; a deliberate format
// change bumps kExploreCheckpointSchemaVersion and re-records these.
TEST(Checkpoint, FileBytesArePinned) {
  struct Pinned {
    const char* task;
    Reduction reduction;
    std::uint32_t levels;
    std::uint64_t size;
    std::uint64_t fnv1a;
  };
  const Pinned kPinned[] = {
      {"dac3", Reduction::kNone, 3, 3592, 0xe33a2f9c846658d8ULL},
      {"mutant-2sa4", Reduction::kNone, 4, 124816, 0x8d1cda7bf541d106ULL},
      {"dac4-sym", Reduction::kSymmetry, 5, 16080, 0x6e4364e25a130f63ULL},
      {"dac5", Reduction::kPor, 6, 204632, 0x7f8aa6bb18527d5aULL},
  };
  for (const Pinned& pin : kPinned) {
    SCOPED_TRACE(std::string(pin.task) + " " + reduction_name(pin.reduction));
    ExploreOptions opts;
    opts.reduction = pin.reduction;
    opts.max_levels = pin.levels;
    opts.checkpoint_path = temp_path("pinned.ckpt");
    opts.checkpoint_label = pin.task;
    const ConfigGraph partial = explore_or_die(get_task(pin.task), opts);
    ASSERT_TRUE(partial.interrupted());
    std::uint64_t size = 0;
    const std::uint64_t digest = fnv1a_file(opts.checkpoint_path, &size);
    EXPECT_EQ(size, pin.size);
    EXPECT_EQ(digest, pin.fnv1a) << std::hex << "got 0x" << digest;
  }
}

TEST(FuzzCheckpoint, CancelInterruptsBlindAndCoverage) {
  const NamedTask task = get_task("dac3");
  for (const bool coverage : {false, true}) {
    SCOPED_TRACE(coverage ? "coverage" : "blind");
    CancelToken cancel;
    cancel.cancel();
    FuzzOptions opts;
    opts.coverage_guided = coverage;
    opts.runs = 1000;
    opts.threads = coverage ? 1 : 4;
    opts.cancel = &cancel;
    const FuzzReport report = fuzz_named_task(task, opts);
    EXPECT_TRUE(report.interrupted);
    EXPECT_LT(report.runs_executed, opts.runs);
  }
}

}  // namespace
}  // namespace lbsa::modelcheck
