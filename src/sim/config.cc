#include "sim/config.h"

#include <array>
#include <utility>

#include "base/check.h"
#include "base/hashing.h"

namespace lbsa::sim {

std::size_t Config::encoded_size() const {
  std::size_t total = 2;  // procs.size() and objects.size() headers
  for (const ProcessState& ps : procs) total += ps.encoded_size();
  for (const auto& obj : objects) total += 1 + obj.size();
  return total;
}

void Config::encode_into(std::vector<std::int64_t>* out) const {
  out->clear();
  out->reserve(encoded_size());
  out->push_back(static_cast<std::int64_t>(procs.size()));
  for (const ProcessState& ps : procs) ps.encode(out);
  out->push_back(static_cast<std::int64_t>(objects.size()));
  for (const auto& obj : objects) {
    out->push_back(static_cast<std::int64_t>(obj.size()));
    out->insert(out->end(), obj.begin(), obj.end());
  }
}

std::int64_t* Config::encode_to(std::int64_t* out) const {
  *out++ = static_cast<std::int64_t>(procs.size());
  for (const ProcessState& ps : procs) out = ps.encode_to(out);
  *out++ = static_cast<std::int64_t>(objects.size());
  for (const auto& obj : objects) {
    *out++ = static_cast<std::int64_t>(obj.size());
    for (std::int64_t w : obj) *out++ = w;
  }
  return out;
}

std::vector<std::int64_t> Config::encode() const {
  std::vector<std::int64_t> out;
  encode_into(&out);
  return out;
}

std::uint64_t Config::hash() const {
  const auto words = encode();
  return hash_words(words);
}

int Config::enabled_count() const {
  int count = 0;
  for (const ProcessState& ps : procs) {
    if (ps.running()) ++count;
  }
  return count;
}

int Config::nth_enabled(int index) const {
  for (int pid = 0; pid < static_cast<int>(procs.size()); ++pid) {
    if (enabled(pid) && index-- == 0) return pid;
  }
  LBSA_CHECK_MSG(false, "nth_enabled: index out of range");
  return -1;
}

namespace {

// Inverse of pack_word's u = zigzag(w) + 16.
constexpr std::int64_t unzigzag(std::uint64_t u) {
  const std::uint64_t z = u - 16;
  return static_cast<std::int64_t>((z >> 1) ^ (0 - (z & 1)));
}

// The word of each one-byte varint.
constexpr auto kOneByteWords = [] {
  std::array<std::int64_t, 0x80> words{};
  for (std::uint64_t b = 0; b < 0x80; ++b) words[b] = unzigzag(b);
  return words;
}();

// Reads one packed word from [*p, end) into *w and advances *p past it;
// see read_packed_word.
inline bool read_varint(const std::uint8_t** p, const std::uint8_t* end,
                        std::int64_t* w) {
  const std::uint8_t* q = *p;
  if (q == end) return false;
  std::uint64_t u = *q++;
  if (u < 0x80) {  // most words take one byte
    *p = q;
    *w = kOneByteWords[u];
    return true;
  }
  u &= 0x7f;
  for (int shift = 7;; shift += 7) {
    if (q == end) return false;
    const std::uint64_t b = *q++;
    // Nine bytes carry 63 bits, so a tenth may carry only the last one.
    if (shift == 63 && b > 1) return false;
    u |= (b & 0x7f) << shift;
    if (b < 0x80) {
      if (b == 0) return false;  // a redundant zero byte
      break;
    }
  }
  *p = q;
  *w = unzigzag(u);
  return true;
}

// An encoding's packed bytes, read a word at a time. remaining() bounds the
// words left (a packed word takes at least a byte), and run() reads `count`
// <= remaining() words.
class PackedReader {
 public:
  explicit PackedReader(std::span<const std::uint8_t> bytes)
      : p_(bytes.data()), end_(bytes.data() + bytes.size()) {}
  bool next(std::int64_t* w) { return read_varint(&p_, end_, w); }
  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }
  bool run(std::size_t count, std::vector<std::int64_t>* out) {
    out->resize(count);
    const std::uint8_t* p = p_;
    for (std::int64_t& w : *out) {
      if (!read_varint(&p, end_, &w)) return false;
    }
    p_ = p;
    return true;
  }

 private:
  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

Status decode_config(PackedReader reader, Config* out) {
  auto malformed = [](const std::string& what) {
    return invalid_argument("decode_packed_config_into: " + what);
  };
  // Takes the next `count` words as a run; false if fewer remain.
  auto take_run = [&](std::int64_t count, std::vector<std::int64_t>* run) {
    return count >= 0 && static_cast<std::size_t>(count) <= reader.remaining() &&
           reader.run(static_cast<std::size_t>(count), run);
  };

  std::int64_t proc_count = 0;
  if (!reader.next(&proc_count)) return malformed("missing process count");
  if (proc_count < 0 || proc_count > 1'000'000) {
    return malformed("implausible process count " +
                     std::to_string(proc_count));
  }
  out->procs.resize(static_cast<std::size_t>(proc_count));
  for (ProcessState& ps : out->procs) {
    std::int64_t status = 0;
    std::int64_t local_count = 0;
    if (!reader.next(&status) || !reader.next(&ps.decision) ||
        !reader.next(&ps.pc) || !reader.next(&local_count)) {
      return malformed("truncated process state");
    }
    if (status < 0 || status > static_cast<std::int64_t>(ProcStatus::kCrashed)) {
      return malformed("bad process status " + std::to_string(status));
    }
    ps.status = static_cast<ProcStatus>(status);
    if (!take_run(local_count, &ps.locals)) {
      return malformed("bad locals count " + std::to_string(local_count));
    }
  }
  std::int64_t object_count = 0;
  if (!reader.next(&object_count)) return malformed("missing object count");
  if (object_count < 0 || object_count > 1'000'000) {
    return malformed("implausible object count " +
                     std::to_string(object_count));
  }
  out->objects.resize(static_cast<std::size_t>(object_count));
  for (std::vector<std::int64_t>& object : out->objects) {
    std::int64_t size = 0;
    if (!reader.next(&size)) return malformed("truncated object state");
    if (!take_run(size, &object)) {
      return malformed("bad object state size " + std::to_string(size));
    }
  }
  if (reader.remaining() != 0) return malformed("trailing words");
  return Status::ok();
}

}  // namespace

Status decode_packed_config_into(std::span<const std::uint8_t> bytes,
                                 Config* out) {
  return decode_config(PackedReader(bytes), out);
}

std::uint8_t* pack_words(std::span<const std::int64_t> words,
                         std::uint8_t* out) {
  for (std::int64_t w : words) out = pack_word(w, out);
  return out;
}

void pack_words(std::span<const std::int64_t> words,
                std::vector<std::uint8_t>* out) {
  std::uint8_t packed[kMaxPackedWordBytes];
  for (std::int64_t w : words) {
    out->insert(out->end(), packed, pack_word(w, packed));
  }
}

bool read_packed_word(std::span<const std::uint8_t> bytes, std::size_t* pos,
                      std::int64_t* w) {
  const std::uint8_t* p = bytes.data() + *pos;
  if (!read_varint(&p, bytes.data() + bytes.size(), w)) return false;
  *pos = static_cast<std::size_t>(p - bytes.data());
  return true;
}

Config initial_config(const Protocol& protocol) {
  Config config;
  const int n = protocol.process_count();
  config.procs.resize(static_cast<size_t>(n));
  for (int pid = 0; pid < n; ++pid) {
    config.procs[static_cast<size_t>(pid)].locals =
        protocol.initial_locals(pid);
  }
  for (const auto& type : protocol.objects()) {
    config.objects.push_back(type->initial_state());
  }
  return config;
}

std::string Step::to_string(const Protocol& protocol) const {
  std::string out = "p" + std::to_string(pid) + ": ";
  switch (action.kind) {
    case Action::Kind::kDecide:
      return out + "decide(" + value_to_string(action.decision) + ")";
    case Action::Kind::kAbort:
      return out + "abort";
    case Action::Kind::kInvoke: {
      const auto& type =
          *protocol.objects()[static_cast<size_t>(action.object_index)];
      out += type.name() + "#" + std::to_string(action.object_index) + "." +
             type.operation_to_string(action.op) + " -> " +
             value_to_string(response);
      if (outcome_choice != 0) {
        out += " [choice " + std::to_string(outcome_choice) + "]";
      }
      return out;
    }
  }
  return out + "?";
}

void prepare_step(const Protocol& protocol, const Config& config, int pid,
                  PreparedStep* prepared) {
  LBSA_CHECK_MSG(config.enabled(pid), "stepping a non-running process");
  prepared->pid = pid;
  prepared->action =
      protocol.next_action(pid, config.procs[static_cast<size_t>(pid)]);
  prepared->outcomes.clear();
  const Action& action = prepared->action;
  if (action.kind != Action::Kind::kInvoke) return;

  LBSA_CHECK(action.object_index >= 0 &&
             static_cast<size_t>(action.object_index) <
                 config.objects.size());
  const spec::ObjectType& type =
      *protocol.objects()[static_cast<size_t>(action.object_index)];
  const Status valid = type.validate(action.op);
  LBSA_CHECK_MSG(valid.is_ok(), valid.to_string().c_str());
  type.apply(config.objects[static_cast<size_t>(action.object_index)],
             action.op, &prepared->outcomes);
  LBSA_CHECK(!prepared->outcomes.empty());
}

Step commit_step(const Protocol& protocol, Config* config, int outcome_choice,
                 PreparedStep* prepared) {
  LBSA_CHECK_MSG(
      outcome_choice >= 0 && outcome_choice < prepared->outcome_count(),
      "outcome_choice out of range");
  const int pid = prepared->pid;
  const Action& action = prepared->action;
  ProcessState& ps = config->procs[static_cast<size_t>(pid)];
  switch (action.kind) {
    case Action::Kind::kDecide:
      ps.status = ProcStatus::kDecided;
      ps.decision = action.decision;
      return Step{pid, action, kNil, 0};
    case Action::Kind::kAbort:
      ps.status = ProcStatus::kAborted;
      return Step{pid, action, kNil, 0};
    case Action::Kind::kInvoke:
      break;
  }
  spec::Outcome& outcome =
      prepared->outcomes[static_cast<size_t>(outcome_choice)];
  config->objects[static_cast<size_t>(action.object_index)] =
      std::move(outcome.next_state);
  protocol.on_response(pid, &ps, outcome.response);
  return Step{pid, action, outcome.response, outcome_choice};
}

void enumerate_successors(const Protocol& protocol, const Config& config,
                          int pid, std::vector<Successor>* out) {
  PreparedStep prepared;
  prepare_step(protocol, config, pid, &prepared);
  for (int choice = 0; choice < prepared.outcome_count(); ++choice) {
    out->push_back(Successor{config, Step{}});
    Successor& succ = out->back();
    succ.step = commit_step(protocol, &succ.config, choice, &prepared);
  }
}

Step apply_step(const Protocol& protocol, Config* config, int pid,
                int outcome_choice) {
  PreparedStep prepared;
  prepare_step(protocol, *config, pid, &prepared);
  return commit_step(protocol, config, outcome_choice, &prepared);
}

int outcome_count(const Protocol& protocol, const Config& config, int pid) {
  PreparedStep prepared;
  prepare_step(protocol, config, pid, &prepared);
  return prepared.outcome_count();
}

}  // namespace lbsa::sim
