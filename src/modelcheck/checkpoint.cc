#include "modelcheck/checkpoint.h"

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "base/check.h"
#include "base/hashing.h"
#include "obs/report.h"
#include "sim/trace.h"

namespace lbsa::modelcheck {
namespace {

// Magic numbers double as file-kind tags: an explore checkpoint handed to
// the fuzz reader (or vice versa) fails immediately with a clear message.
constexpr std::uint64_t kExploreMagic = 0x4c42534145585031ULL;  // "LBSAEXP1"
constexpr std::uint64_t kFuzzMagic = 0x4c42534146555a31ULL;     // "LBSAFUZ1"

std::int64_t as_word(std::uint64_t v) { return std::bit_cast<std::int64_t>(v); }
std::uint64_t as_u64(std::int64_t w) { return std::bit_cast<std::uint64_t>(w); }

// Builds a checkpoint file in one buffer: the four header words, which
// write() fills in, then the payload. Everything is one int64 per logical
// field; strings spend one word per character, and byte runs one word per 8
// bytes (the format stays trivially seekless).
class WordWriter {
 public:
  WordWriter() : words_(kHeaderWords) {}

  void i64(std::int64_t v) { words_.push_back(v); }
  void u64(std::uint64_t v) { words_.push_back(as_word(v)); }
  void u32(std::uint32_t v) { words_.push_back(static_cast<std::int64_t>(v)); }
  void boolean(bool v) { words_.push_back(v ? 1 : 0); }

  void str(const std::string& s) {
    u64(s.size());
    for (char c : s) {
      words_.push_back(static_cast<std::int64_t>(
          static_cast<unsigned char>(c)));
    }
  }

  // The run's length, then its bytes packed 8 to a word in file order, the
  // last word zero-padded.
  void bytes(std::span<const std::uint8_t> v) {
    u64(v.size());
    const std::size_t at = words_.size();
    words_.resize(at + (v.size() + 7) / 8);
    if (!v.empty()) std::memcpy(words_.data() + at, v.data(), v.size());
  }

  // Fills in [magic, version, payload count, payload hash] and writes the
  // file atomically.
  Status write(std::uint64_t magic, std::uint32_t version,
               const std::string& path) {
    const auto payload = std::span(words_).subspan(kHeaderWords);
    words_[0] = as_word(magic);
    words_[1] = static_cast<std::int64_t>(version);
    words_[2] = static_cast<std::int64_t>(payload.size());
    words_[3] = as_word(hash_words(payload));
    return obs::write_text_file(
        path, {reinterpret_cast<const char*>(words_.data()),
               words_.size() * sizeof(std::int64_t)});
  }

 private:
  static constexpr std::size_t kHeaderWords = 4;
  std::vector<std::int64_t> words_;
};

// Linear payload reader. The first malformed read latches an error status;
// subsequent reads return zero values, so decoders can run straight through
// and check status() once (plus explicit bounds checks before large
// reserves, via count()).
class WordReader {
 public:
  explicit WordReader(std::span<const std::int64_t> words) : words_(words) {}

  std::int64_t i64() {
    if (!status_.is_ok()) return 0;
    if (pos_ >= words_.size()) {
      fail("truncated payload");
      return 0;
    }
    return words_[pos_++];
  }

  std::uint64_t u64() { return as_u64(i64()); }

  std::uint32_t u32(const char* what) {
    const std::int64_t v = i64();
    if (v < 0 || v > static_cast<std::int64_t>(
                        std::numeric_limits<std::uint32_t>::max())) {
      fail(std::string(what) + " out of range");
      return 0;
    }
    return static_cast<std::uint32_t>(v);
  }

  bool boolean(const char* what) {
    const std::int64_t v = i64();
    if (v != 0 && v != 1) {
      fail(std::string(what) + " is not a boolean");
      return false;
    }
    return v == 1;
  }

  // An element count for a sequence whose elements each occupy at least
  // min_words_per_element payload words — bounding counts by the remaining
  // payload rejects absurd sizes before any allocation.
  std::size_t count(const char* what, std::size_t min_words_per_element = 1) {
    const std::int64_t v = i64();
    if (v < 0 ||
        static_cast<std::uint64_t>(v) * min_words_per_element > remaining()) {
      fail(std::string(what) + " count exceeds payload");
      return 0;
    }
    return static_cast<std::size_t>(v);
  }

  std::string str(const char* what) {
    const std::size_t n = count(what);
    std::string out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t c = i64();
      if (c < 0 || c > 255) {
        fail(std::string(what) + " has a non-byte character");
        return out;
      }
      out.push_back(static_cast<char>(static_cast<unsigned char>(c)));
    }
    return out;
  }

  // A schedule in the sim/trace.h text format. One that does not parse
  // fails the read here, so a resumed campaign never has to.
  std::string schedule(const char* what) {
    std::string text = str(what);
    if (!status_.is_ok()) return text;
    if (const auto parsed = sim::parse_schedule(text); !parsed.is_ok()) {
      fail(std::string(what) + " does not parse: " +
           parsed.status().message());
    }
    return text;
  }

  // Reads a byte run (WordWriter::bytes) as the next run of *out.
  void bytes(const char* what, NodeRuns<std::uint8_t>* out) {
    const std::int64_t n = i64();
    if (n < 0 || (static_cast<std::uint64_t>(n) + 7) / 8 > remaining()) {
      fail(std::string(what) + " length exceeds payload");
    } else if (n > 0) {
      const std::size_t at = out->items.size();
      out->items.resize(at + static_cast<std::size_t>(n));
      std::memcpy(out->items.data() + at, words_.data() + pos_,
                  static_cast<std::size_t>(n));
      pos_ += (static_cast<std::size_t>(n) + 7) / 8;
    }
    out->offsets.push_back(out->items.size());
  }

  std::uint64_t remaining() const { return words_.size() - pos_; }
  bool done() const { return pos_ == words_.size(); }
  const Status& status() const { return status_; }
  void fail(const std::string& what) {
    if (status_.is_ok()) status_ = invalid_argument("checkpoint: " + what);
  }

 private:
  std::span<const std::int64_t> words_;
  std::size_t pos_ = 0;
  Status status_;
};

// Accepts schema versions [oldest, newest].
StatusOr<std::vector<std::int64_t>> read_words(std::uint64_t magic,
                                               std::uint32_t oldest,
                                               std::uint32_t newest,
                                               const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return not_found("cannot open checkpoint: " + path);

  // Size the file before trusting any header field, so a corrupt payload
  // count can never drive the allocation below.
  if (std::fseek(f, 0, SEEK_END) != 0) {
    std::fclose(f);
    return invalid_argument("cannot size checkpoint: " + path);
  }
  const long file_bytes = std::ftell(f);
  std::rewind(f);
  if (file_bytes < 0 ||
      static_cast<std::size_t>(file_bytes) % sizeof(std::int64_t) != 0) {
    std::fclose(f);
    return invalid_argument("checkpoint is not a whole number of words: " +
                            path);
  }
  const std::size_t file_words =
      static_cast<std::size_t>(file_bytes) / sizeof(std::int64_t);

  std::int64_t header[4];
  if (file_words < 4 || std::fread(header, sizeof(std::int64_t), 4, f) != 4) {
    std::fclose(f);
    return invalid_argument("checkpoint too short for header: " + path);
  }
  if (as_u64(header[0]) != magic) {
    std::fclose(f);
    return invalid_argument("not a checkpoint of this kind (bad magic): " +
                            path);
  }
  if (header[1] < static_cast<std::int64_t>(oldest) ||
      header[1] > static_cast<std::int64_t>(newest)) {
    std::fclose(f);
    const std::string expected =
        oldest == newest ? std::to_string(newest)
                         : std::to_string(oldest) + " to " +
                               std::to_string(newest);
    return invalid_argument("checkpoint schema version " +
                            std::to_string(header[1]) +
                            " unsupported (expected " + expected + "): " +
                            path);
  }
  if (header[2] < 0 ||
      static_cast<std::size_t>(header[2]) != file_words - 4) {
    std::fclose(f);
    return invalid_argument("checkpoint payload size mismatch: " + path);
  }
  const auto payload_count = static_cast<std::size_t>(header[2]);
  std::vector<std::int64_t> payload(payload_count);
  const std::size_t got =
      std::fread(payload.data(), sizeof(std::int64_t), payload_count, f);
  std::fclose(f);
  if (got != payload_count) {
    return invalid_argument("checkpoint payload size mismatch: " + path);
  }
  if (hash_words(payload) != as_u64(header[3])) {
    return invalid_argument("checkpoint checksum mismatch (corrupt file): " +
                            path);
  }
  return payload;
}

std::uint64_t mix_double(std::uint64_t h, double v) {
  return hash_combine(h, std::bit_cast<std::uint64_t>(v));
}

}  // namespace

std::uint64_t explore_fingerprint(const sim::Protocol& protocol,
                                  const ExploreOptions& options,
                                  bool has_flag_fn,
                                  std::int64_t initial_flag) {
  const std::vector<std::int64_t> init =
      sim::initial_config(protocol).encode();
  std::uint64_t h = hash_words(init, /*seed=*/0x6578706c6f726531ULL);
  h = hash_combine(h, static_cast<std::uint64_t>(protocol.process_count()));
  h = hash_combine(h, static_cast<std::uint64_t>(options.reduction));
  h = hash_combine(h, has_flag_fn ? 1 : 0);
  h = hash_combine(h, static_cast<std::uint64_t>(initial_flag));
  h = hash_combine(h, options.max_nodes);
  h = hash_combine(h, options.allow_truncation ? 1 : 0);
  h = hash_combine(h, options.flag_fn_symmetric ? 1 : 0);
  return h;
}

std::uint64_t fuzz_fingerprint(const sim::Protocol& protocol,
                               const FuzzOptions& options) {
  const std::vector<std::int64_t> init =
      sim::initial_config(protocol).encode();
  std::uint64_t h = hash_words(init, /*seed=*/0x66757a7a63616d70ULL);
  h = hash_combine(h, static_cast<std::uint64_t>(protocol.process_count()));
  h = hash_combine(h, options.runs);
  h = hash_combine(h, options.max_steps_per_run);
  h = hash_combine(h, options.seed);
  h = mix_double(h, options.burst_fraction);
  h = hash_combine(h, static_cast<std::uint64_t>(options.max_violations));
  h = hash_combine(h, options.coverage_guided ? 1 : 0);
  h = hash_combine(h, options.pool_limit);
  h = mix_double(h, options.mutation_fraction);
  h = hash_combine(h, options.max_fingerprints_per_run);
  return h;
}

Status validate_fuzz_resume(const sim::Protocol& protocol,
                            const FuzzOptions& options,
                            const FuzzCheckpoint& cp) {
  if (!options.coverage_guided) {
    return failed_precondition(
        "fuzz resume: checkpoints exist only for the coverage engine "
        "(the blind engine is stateless across runs)");
  }
  if (cp.fingerprint != fuzz_fingerprint(protocol, options)) {
    const std::string suffix =
        cp.task_label.empty() ? std::string()
                              : " (checkpoint task: '" + cp.task_label + "')";
    return failed_precondition(
        "fuzz resume: checkpoint fingerprint mismatch — written for a "
        "different task, seed, or campaign option set" +
        suffix);
  }
  if (cp.runs_completed > options.runs) {
    return failed_precondition(
        "fuzz resume: checkpoint has " + std::to_string(cp.runs_completed) +
        " completed runs but the campaign budget is only " +
        std::to_string(options.runs));
  }
  return Status::ok();
}

Status write_explore_checkpoint(const ExploreCheckpoint& checkpoint,
                                const std::string& path) {
  const std::size_t n = checkpoint.keys.size();
  LBSA_CHECK(checkpoint.edges.size() == n);
  LBSA_CHECK(checkpoint.discovery_perms.empty() ||
             checkpoint.discovery_perms.size() == n);

  WordWriter w;
  w.u64(checkpoint.fingerprint);
  w.str(checkpoint.task_label);
  w.i64(static_cast<std::int64_t>(checkpoint.reduction));
  w.i64(checkpoint.initial_flag);
  w.boolean(checkpoint.has_flag_fn);
  w.u64(checkpoint.max_nodes);
  w.boolean(checkpoint.allow_truncation);
  w.boolean(checkpoint.truncated);
  w.u32(checkpoint.levels_completed);

  w.u64(n);
  w.boolean(!checkpoint.discovery_perms.empty());
  for (std::size_t i = 0; i < n; ++i) {
    w.bytes(checkpoint.keys[i]);
    if (!checkpoint.discovery_perms.empty()) {
      w.bytes(checkpoint.discovery_perms[i]);
    }
    w.u64(checkpoint.edges[i].size());
    for (const Edge& e : checkpoint.edges[i]) {
      w.u32(e.to);
      w.i64(e.pid);
      w.i64(static_cast<std::int64_t>(e.kind));
      w.u32(e.to_pid);
    }
  }
  w.u64(checkpoint.frontier.size());
  for (std::uint32_t id : checkpoint.frontier) w.u32(id);
  return w.write(kExploreMagic, kExploreCheckpointSchemaVersion, path);
}

StatusOr<ExploreCheckpoint> read_explore_checkpoint(const std::string& path) {
  auto payload =
      read_words(kExploreMagic, kExploreCheckpointSchemaVersion,
                 kExploreCheckpointSchemaVersion, path);
  if (!payload.is_ok()) return payload.status();
  WordReader r(payload.value());

  ExploreCheckpoint cp;
  cp.fingerprint = r.u64();
  cp.task_label = r.str("task label");
  const std::int64_t reduction = r.i64();
  if (reduction < 0 ||
      reduction > static_cast<std::int64_t>(Reduction::kBoth)) {
    r.fail("reduction mode out of range");
  }
  cp.reduction = static_cast<Reduction>(reduction);
  cp.initial_flag = r.i64();
  cp.has_flag_fn = r.boolean("has_flag_fn");
  cp.max_nodes = r.u64();
  cp.allow_truncation = r.boolean("allow_truncation");
  cp.truncated = r.boolean("truncated");
  cp.levels_completed = r.u32("levels_completed");

  // Each node needs at least its key length and its edge count.
  const std::size_t n = r.count("node", /*min_words_per_element=*/2);
  const bool has_perms = r.boolean("has discovery perms");
  cp.keys.offsets.reserve(n + 1);
  cp.edges.offsets.reserve(n + 1);
  if (has_perms) cp.discovery_perms.offsets.reserve(n + 1);
  for (std::size_t i = 0; i < n && r.status().is_ok(); ++i) {
    r.bytes("node key", &cp.keys);
    if (has_perms) r.bytes("discovery perm", &cp.discovery_perms);
    const std::size_t edge_count =
        r.count("edge", /*min_words_per_element=*/4);
    for (std::size_t j = 0; j < edge_count && r.status().is_ok(); ++j) {
      Edge e;
      e.to = r.u32("edge target");
      e.pid = static_cast<std::int32_t>(r.i64());
      const std::int64_t kind = r.i64();
      if (kind < 0 ||
          kind > static_cast<std::int64_t>(sim::Action::Kind::kAbort)) {
        r.fail("edge action kind out of range");
      }
      e.kind = static_cast<sim::Action::Kind>(kind);
      const std::int64_t to_pid = r.i64();
      if (to_pid < 0 || to_pid > std::numeric_limits<std::uint16_t>::max()) {
        r.fail("edge to_pid out of range");
      }
      e.to_pid = static_cast<std::uint16_t>(to_pid);
      if (e.to >= n) r.fail("edge target beyond node count");
      cp.edges.items.push_back(e);
    }
    cp.edges.offsets.push_back(cp.edges.items.size());
  }
  const std::size_t frontier_count = r.count("frontier");
  cp.frontier.reserve(frontier_count);
  for (std::size_t i = 0; i < frontier_count && r.status().is_ok(); ++i) {
    const std::uint32_t id = r.u32("frontier id");
    if (id >= n) r.fail("frontier id beyond node count");
    if (!cp.frontier.empty() && id <= cp.frontier.back()) {
      r.fail("frontier ids not ascending");
    }
    cp.frontier.push_back(id);
  }
  if (r.status().is_ok() && !r.done()) r.fail("trailing payload words");
  if (!r.status().is_ok()) return r.status();
  return cp;
}

Status write_fuzz_checkpoint(const FuzzCheckpoint& checkpoint,
                             const std::string& path) {
  WordWriter w;
  w.u64(checkpoint.fingerprint);
  w.str(checkpoint.task_label);
  w.u64(checkpoint.runs_completed);
  for (std::uint64_t word : checkpoint.rng_state) w.u64(word);
  w.u64(checkpoint.global_fingerprints.size());
  for (std::uint64_t fp : checkpoint.global_fingerprints) w.u64(fp);
  w.u64(checkpoint.pool.size());
  for (const std::string& s : checkpoint.pool) w.str(s);
  w.u64(checkpoint.runs_terminated);
  w.u64(checkpoint.interesting_runs);
  w.u64(checkpoint.mutated_runs);
  w.u64(checkpoint.violations.size());
  for (const auto& v : checkpoint.violations) {
    w.str(v.property);
    w.str(v.detail);
    w.u64(v.run_seed);
    w.str(v.schedule);
    w.u64(v.raw_steps);
  }
  return w.write(kFuzzMagic, kFuzzCheckpointSchemaVersion, path);
}

StatusOr<FuzzCheckpoint> read_fuzz_checkpoint(const std::string& path) {
  auto payload = read_words(kFuzzMagic, kOldestFuzzCheckpointSchemaVersion,
                            kFuzzCheckpointSchemaVersion, path);
  if (!payload.is_ok()) return payload.status();
  WordReader r(payload.value());

  FuzzCheckpoint cp;
  cp.fingerprint = r.u64();
  cp.task_label = r.str("task label");
  cp.runs_completed = r.u64();
  for (std::size_t i = 0; i < cp.rng_state.size(); ++i) {
    cp.rng_state[i] = r.u64();
  }
  if ((cp.rng_state[0] | cp.rng_state[1] | cp.rng_state[2] |
       cp.rng_state[3]) == 0 &&
      r.status().is_ok()) {
    r.fail("all-zero RNG state");
  }
  const std::size_t fp_count = r.count("fingerprint");
  cp.global_fingerprints.reserve(fp_count);
  for (std::size_t i = 0; i < fp_count && r.status().is_ok(); ++i) {
    const std::uint64_t fp = r.u64();
    if (!cp.global_fingerprints.empty() &&
        fp <= cp.global_fingerprints.back()) {
      r.fail("fingerprints not sorted ascending");
    }
    cp.global_fingerprints.push_back(fp);
  }
  const std::size_t pool_count = r.count("pool");
  cp.pool.reserve(pool_count);
  for (std::size_t i = 0; i < pool_count && r.status().is_ok(); ++i) {
    cp.pool.push_back(r.schedule("pool schedule"));
  }
  cp.runs_terminated = r.u64();
  cp.interesting_runs = r.u64();
  cp.mutated_runs = r.u64();
  const std::size_t violation_count =
      r.count("violation", /*min_words_per_element=*/5);
  cp.violations.reserve(violation_count);
  for (std::size_t i = 0; i < violation_count && r.status().is_ok(); ++i) {
    FuzzCheckpoint::RawViolation v;
    v.property = r.str("violation property");
    v.detail = r.str("violation detail");
    v.run_seed = r.u64();
    v.schedule = r.schedule("violation schedule");
    v.raw_steps = r.u64();
    cp.violations.push_back(std::move(v));
  }
  if (r.status().is_ok() && !r.done()) r.fail("trailing payload words");
  if (!r.status().is_ok()) return r.status();
  return cp;
}

}  // namespace lbsa::modelcheck
