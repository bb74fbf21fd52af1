// Configurations and the one-step transition relation — the exact objects
// the paper's proofs reason about ("configuration C", "step e_p", "history H
// applicable to C"). Every engine steps through one core: prepare_step
// computes a process's next action and all its outcomes once, and
// commit_step applies one outcome to a configuration in place. The
// Simulation, the fuzzer, the shrinker, the replayer and the exhaustive
// model checker are all built on these two functions.
#ifndef LBSA_SIM_CONFIG_H_
#define LBSA_SIM_CONFIG_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "base/status.h"
#include "sim/action.h"
#include "sim/process_state.h"
#include "sim/protocol.h"

namespace lbsa::sim {

// A global configuration: every process automaton state plus every object
// state. Value-semantic: copies are cheap enough for model checking at the
// paper-relevant scales (n <= 5 processes).
struct Config {
  std::vector<ProcessState> procs;
  std::vector<std::vector<std::int64_t>> objects;

  friend bool operator==(const Config&, const Config&) = default;

  // Canonical word encoding, for hashing/interning.
  std::vector<std::int64_t> encode() const;
  // Fast path for hot loops: clears *out and fills it with the canonical
  // encoding, reserving the exact size up front so a reused buffer never
  // reallocates after warm-up.
  void encode_into(std::vector<std::int64_t>* out) const;
  // Exact number of words encode() produces.
  std::size_t encoded_size() const;
  // Writes the same encoding to a raw buffer of at least encoded_size()
  // words; returns one past the last word written. This is the explorer's
  // arena fast path: the caller bump-allocates exactly encoded_size() words
  // and encodes straight into them, no intermediate vector.
  std::int64_t* encode_to(std::int64_t* out) const;

  // The configuration's fingerprint: the sum, mod 2^64, of process_hash
  // over every process and object_hash over every object. A step changes
  // one process and at most one object, so a running fingerprint follows a
  // run by rehashing just those (the fuzzer keeps one per run) instead of
  // encoding the whole configuration.
  std::uint64_t hash() const;
  // hash_words of process pid's encoding (ProcessState::encode), seeded
  // from pid.
  std::uint64_t process_hash(int pid) const;
  // hash_words of object `index`'s state, seeded from index. No object seed
  // equals a process seed, so two components that trade states change the
  // sum.
  std::uint64_t object_hash(int index) const;

  // True iff pid can take a step (running, not crashed/terminated).
  bool enabled(int pid) const {
    return procs[static_cast<size_t>(pid)].running();
  }
  // Count of enabled processes.
  int enabled_count() const;
  // The index-th enabled pid in pid order (0 <= index < enabled_count()):
  // a uniform pick draws the index, with no vector of enabled pids.
  int nth_enabled(int index) const;
  // True iff no process is enabled.
  bool halted() const { return enabled_count() == 0; }
};

// The configuration in which every process is at its initial state and
// every object at its initial state.
Config initial_config(const Protocol& protocol);

// --- Packed words -----------------------------------------------------------
// A compact, invertible byte form of a word sequence, in which the model
// checker stores its node keys. Each word w is written as the LEB128 varint
// (7 bits a byte, low bits first, high bit set on every byte but the last)
// of u = zigzag(w) + 16, computed modulo 2^64. The map w -> u is a
// bijection that sends the 16 words nearest the ends of the range to
// 0..15, so one byte holds [INT64_MIN, INT64_MIN + 7] (the value
// sentinels kNil ... kCrashSentinel), [-56, 55] (counters, pids, statuses)
// and [INT64_MAX - 7, INT64_MAX]; two bytes hold inputs such as 100-600;
// and kMinOrdinary and 2^62 take the most, kMaxPackedWordBytes.
inline constexpr std::size_t kMaxPackedWordBytes = 10;

// Writes w's varint at out, which must have kMaxPackedWordBytes bytes of
// room; returns one past its last byte.
inline std::uint8_t* pack_word(std::int64_t w, std::uint8_t* out) {
  const auto bits = static_cast<std::uint64_t>(w);
  std::uint64_t u = ((bits << 1) ^ static_cast<std::uint64_t>(w >> 63)) + 16;
  while (u >= 0x80) {
    *out++ = static_cast<std::uint8_t>(u | 0x80);
    u >>= 7;
  }
  *out++ = static_cast<std::uint8_t>(u);
  return out;
}

// Packs every word of `words` at out, which must have
// kMaxPackedWordBytes * words.size() bytes of room; returns one past the
// last byte written.
std::uint8_t* pack_words(std::span<const std::int64_t> words,
                         std::uint8_t* out);
// Appends every word of `words`, packed, to *out.
void pack_words(std::span<const std::int64_t> words,
                std::vector<std::uint8_t>* out);

// Reads the packed word at bytes[*pos] into *w and advances *pos past it.
// False on a truncated varint, one longer than kMaxPackedWordBytes or
// overflowing 64 bits, or one with a redundant zero last byte: only
// pack_word's output reads back.
bool read_packed_word(std::span<const std::uint8_t> bytes, std::size_t* pos,
                      std::int64_t* w);

// Inverse of Config::encode() over its packed form: rebuilds a Config from
// the packed words of its encoding, read straight from the bytes, into *out,
// reusing its vectors' storage, so a loop that decodes many configurations
// through one Config allocates nothing once the buffers have grown.
// INVALID_ARGUMENT on malformed input (a varint read_packed_word rejects,
// bad counts, short input, trailing bytes, out-of-range status), leaving
// *out a partial decode: the model checker decodes its node keys through
// it, and resume validates checkpoint keys with it rather than crash.
Status decode_packed_config_into(std::span<const std::uint8_t> bytes,
                                 Config* out);

// One recorded step: process pid performed `action` and (for invokes)
// received `response` as the outcome_choice-th outcome.
struct Step {
  int pid = -1;
  Action action;
  Value response = kNil;
  int outcome_choice = 0;

  std::string to_string(const Protocol& protocol) const;

  friend bool operator==(const Step&, const Step&) = default;
};

// pid's next step from one configuration, computed once: its action and,
// for an invoke, every outcome the object allows. Reusable across steps, so
// a loop that steps through one PreparedStep allocates only what the
// object's apply allocates.
struct PreparedStep {
  int pid = -1;
  Action action;
  // An invoke's (response, next object state) pairs, in the object's order;
  // empty for a decide or abort, which has exactly one outcome.
  std::vector<spec::Outcome> outcomes;

  // Number of distinct outcomes (>= 1).
  int outcome_count() const {
    return outcomes.empty() ? 1 : static_cast<int>(outcomes.size());
  }
};

// Prepares pid's next step from `config` into *prepared, replacing what it
// held. pid must be enabled; the operation is validated.
void prepare_step(const Protocol& protocol, const Config& config, int pid,
                  PreparedStep* prepared);

// Applies outcome `outcome_choice` (in [0, outcome_count())) of the step
// prepared from *config, in place, and returns the step taken: a decide or
// abort has response kNil and choice 0. The chosen outcome's next object
// state is moved out of *prepared, so each outcome is committed at most
// once; committing several outcomes needs one copy of the configuration
// each (enumerate_successors).
Step commit_step(const Protocol& protocol, Config* config, int outcome_choice,
                 PreparedStep* prepared);

// A successor configuration together with the step that produced it.
struct Successor {
  Config config;
  Step step;
};

// Appends every successor of `config` by one step of process pid to *out
// (one per nondeterministic outcome; exactly one for deterministic objects
// and for decide/abort steps): one prepare, then a copy and a commit per
// outcome. pid must be enabled.
void enumerate_successors(const Protocol& protocol, const Config& config,
                          int pid, std::vector<Successor>* out);

// Applies one specific step choice: pid steps, and if the object is
// nondeterministic, outcome_choice in [0, #outcomes) selects the response.
// Returns the step taken. config is updated in place. Prepare + commit.
Step apply_step(const Protocol& protocol, Config* config, int pid,
                int outcome_choice);

// Number of distinct outcomes if pid were to step now (>= 1).
int outcome_count(const Protocol& protocol, const Config& config, int pid);

}  // namespace lbsa::sim

#endif  // LBSA_SIM_CONFIG_H_
