// Configurations and the one-step transition relation — the exact objects
// the paper's proofs reason about ("configuration C", "step e_p", "history H
// applicable to C"). Both the interactive Simulation and the exhaustive
// model checker are built on these functional semantics.
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
  std::uint64_t hash() const;

  // True iff pid can take a step (running, not crashed/terminated).
  bool enabled(int pid) const {
    return procs[static_cast<size_t>(pid)].running();
  }
  // Count of enabled processes.
  int enabled_count() const;
  // True iff no process is enabled.
  bool halted() const { return enabled_count() == 0; }
};

// The configuration in which every process is at its initial state and
// every object at its initial state.
Config initial_config(const Protocol& protocol);

// Inverse of Config::encode(): rebuilds a Config from its canonical word
// encoding into *out, reusing its vectors' storage, so a loop that decodes
// many configurations through one Config allocates nothing once the buffers
// have grown. INVALID_ARGUMENT on malformed input (bad counts, short
// buffers, trailing words, out-of-range status), leaving *out a partial
// decode — used by the model checker's checkpoint loader, which must reject
// corrupt files rather than crash.
Status decode_config_into(std::span<const std::int64_t> words, Config* out);

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

// A successor configuration together with the step that produced it.
struct Successor {
  Config config;
  Step step;
};

// Enumerates every successor of `config` by one step of process pid
// (one per nondeterministic outcome; exactly one for deterministic objects
// and for decide/abort steps). pid must be enabled. The protocol's
// operations are validated on first use per call.
void enumerate_successors(const Protocol& protocol, const Config& config,
                          int pid, std::vector<Successor>* out);

// Applies one specific step choice: pid steps, and if the object is
// nondeterministic, outcome_choice in [0, #outcomes) selects the response.
// Returns the step taken. config is updated in place.
Step apply_step(const Protocol& protocol, Config* config, int pid,
                int outcome_choice);

// Number of distinct outcomes if pid were to step now (>= 1).
int outcome_count(const Protocol& protocol, const Config& config, int pid);

}  // namespace lbsa::sim

#endif  // LBSA_SIM_CONFIG_H_
