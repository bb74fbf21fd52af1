// Tests for the configuration semantics: initial configs, step application,
// successor enumeration, encoding/hashing, the packed word codec the model
// checker stores its node keys in, and an independent oracle for the
// in-place step core.
#include "sim/config.h"

#include <deque>
#include <limits>
#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "base/check.h"
#include "base/rng.h"
#include "modelcheck/explorer.h"
#include "modelcheck/task_check.h"
#include "protocols/dac_from_pac.h"
#include "protocols/group_ksa.h"
#include "protocols/mutants.h"
#include "protocols/one_shot.h"
#include "protocols/straw_dac.h"

namespace lbsa::sim {
namespace {

using protocols::DacFromPacProtocol;
using protocols::make_consensus_via_n_consensus;
using protocols::make_ksa_via_two_sa;

TEST(Config, InitialConfigShape) {
  auto protocol = std::make_shared<DacFromPacProtocol>(
      std::vector<Value>{10, 20, 30});
  const Config config = initial_config(*protocol);
  ASSERT_EQ(config.procs.size(), 3u);
  ASSERT_EQ(config.objects.size(), 1u);
  for (const ProcessState& ps : config.procs) {
    EXPECT_TRUE(ps.running());
    EXPECT_EQ(ps.pc, 0);
  }
  EXPECT_EQ(config.procs[0].locals[0], 10);
  EXPECT_EQ(config.procs[2].locals[0], 30);
  EXPECT_EQ(config.enabled_count(), 3);
  EXPECT_FALSE(config.halted());
}

TEST(Config, EncodeDistinguishesConfigs) {
  auto protocol = make_consensus_via_n_consensus({10, 20});
  Config a = initial_config(*protocol);
  Config b = a;
  EXPECT_EQ(a.encode(), b.encode());
  EXPECT_EQ(a.hash(), b.hash());
  apply_step(*protocol, &b, 0, 0);
  EXPECT_NE(a.encode(), b.encode());
  EXPECT_NE(a, b);
}

TEST(Config, EncodeIntoMatchesEncodeAndReservesExactly) {
  auto protocol = std::make_shared<DacFromPacProtocol>(
      std::vector<Value>{10, 20, 30});
  Config config = initial_config(*protocol);
  std::vector<std::int64_t> scratch{1, 2, 3};  // stale content is discarded
  for (int step = 0; step < 6; ++step) {
    config.encode_into(&scratch);
    EXPECT_EQ(scratch, config.encode());
    EXPECT_EQ(scratch.size(), config.encoded_size());
    // A fresh buffer gets one exact-size allocation, no growth.
    std::vector<std::int64_t> fresh;
    config.encode_into(&fresh);
    EXPECT_EQ(fresh.capacity(), config.encoded_size());
    apply_step(*protocol, &config, step % 3, 0);
  }
}

TEST(Config, ApplyStepAdvancesOneProcessOnly) {
  auto protocol = make_consensus_via_n_consensus({10, 20});
  Config config = initial_config(*protocol);
  const Step step = apply_step(*protocol, &config, 1, 0);
  EXPECT_EQ(step.pid, 1);
  EXPECT_EQ(step.response, 20);  // first propose wins with its own value
  EXPECT_EQ(config.procs[0].pc, 0);
  EXPECT_EQ(config.procs[1].pc, 1);
}

TEST(Config, DecideStepTerminatesProcess) {
  auto protocol = make_consensus_via_n_consensus({10, 20});
  Config config = initial_config(*protocol);
  apply_step(*protocol, &config, 0, 0);  // propose
  const Step step = apply_step(*protocol, &config, 0, 0);  // local decide
  EXPECT_EQ(step.action.kind, Action::Kind::kDecide);
  EXPECT_TRUE(config.procs[0].decided());
  EXPECT_EQ(config.procs[0].decision, 10);
  EXPECT_FALSE(config.enabled(0));
}

TEST(Config, SuccessorsOfDeterministicStepIsSingleton) {
  auto protocol = make_consensus_via_n_consensus({10, 20});
  const Config config = initial_config(*protocol);
  std::vector<Successor> succs;
  enumerate_successors(*protocol, config, 0, &succs);
  EXPECT_EQ(succs.size(), 1u);
  EXPECT_EQ(outcome_count(*protocol, config, 0), 1);
}

TEST(Config, SuccessorsEnumerateKsaNondeterminism) {
  auto protocol = make_ksa_via_two_sa({10, 20, 30});
  Config config = initial_config(*protocol);
  apply_step(*protocol, &config, 0, 0);  // STATE = {10}
  // Second proposer: STATE = {10, 20}, response may be either member.
  std::vector<Successor> succs;
  enumerate_successors(*protocol, config, 1, &succs);
  ASSERT_EQ(succs.size(), 2u);
  EXPECT_EQ(outcome_count(*protocol, config, 1), 2);
  EXPECT_NE(succs[0].step.response, succs[1].step.response);
  // Both leave the same object state (the response choice is independent).
  EXPECT_EQ(succs[0].config.objects[0], succs[1].config.objects[0]);
}

TEST(Config, StepToStringIsReadable) {
  auto protocol = make_consensus_via_n_consensus({10, 20});
  Config config = initial_config(*protocol);
  const Step s = apply_step(*protocol, &config, 0, 0);
  const std::string text = s.to_string(*protocol);
  EXPECT_NE(text.find("p0"), std::string::npos);
  EXPECT_NE(text.find("PROPOSE"), std::string::npos);
  EXPECT_NE(text.find("10"), std::string::npos);
}

// The one-step semantics written out directly, sharing no code with
// prepare_step/commit_step: for each outcome, copy the configuration, ask
// the protocol for pid's action, apply the operation to the object, store
// the chosen next state and advance the automaton.
std::vector<std::pair<Step, Config>> naive_successors(const Protocol& protocol,
                                                      const Config& config,
                                                      int pid) {
  const auto p = static_cast<std::size_t>(pid);
  const Action action = protocol.next_action(pid, config.procs[p]);
  std::vector<std::pair<Step, Config>> out;
  if (action.kind != Action::Kind::kInvoke) {
    Config next = config;
    if (action.kind == Action::Kind::kDecide) {
      next.procs[p].status = ProcStatus::kDecided;
      next.procs[p].decision = action.decision;
    } else {
      next.procs[p].status = ProcStatus::kAborted;
    }
    out.emplace_back(Step{pid, action, kNil, 0}, std::move(next));
    return out;
  }
  const auto object = static_cast<std::size_t>(action.object_index);
  std::vector<spec::Outcome> outcomes;
  protocol.objects()[object]->apply(config.objects[object], action.op,
                                    &outcomes);
  for (std::size_t choice = 0; choice < outcomes.size(); ++choice) {
    Config next = config;
    next.objects[object] = outcomes[choice].next_state;
    protocol.on_response(pid, &next.procs[p], outcomes[choice].response);
    out.emplace_back(Step{pid, action, outcomes[choice].response,
                          static_cast<int>(choice)},
                     std::move(next));
  }
  return out;
}

std::vector<Value> registry_inputs(int n) {
  std::vector<Value> inputs;
  for (int i = 0; i < n; ++i) inputs.push_back(100 + 100 * i);
  return inputs;
}

// Walks a breadth-first prefix of about 2,000 configurations of each
// protocol with the naive stepper, and at every configuration checks every
// enabled pid and every outcome: prepare_step + commit_step (one reused
// PreparedStep, each outcome committed into its own copy), apply_step,
// outcome_count and enumerate_successors must all return the naive Step
// and Config.
TEST(Config, PreparedStepMatchesNaiveStepper) {
  constexpr std::size_t kNodeBound = 2000;
  struct Case {
    const char* name;  // the registry task it instantiates
    std::shared_ptr<const Protocol> protocol;
    bool multi_outcome;  // has nondeterministic k-SA objects
  };
  const Case cases[] = {
      {"mutant-2sa4", protocols::make_overclaimed_two_sa(registry_inputs(4)),
       true},
      {"twosa4", make_ksa_via_two_sa(registry_inputs(4)), true},
      {"dac3", std::make_shared<DacFromPacProtocol>(registry_inputs(3)),
       false},
      {"strawdac5", std::make_shared<protocols::StrawDacFallbackProtocol>(
                        registry_inputs(5)),
       false},
      {"groupksa", std::make_shared<protocols::GroupKsaProtocol>(
                       3, 4, registry_inputs(12)),
       false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const Protocol& protocol = *c.protocol;
    std::set<std::vector<std::int64_t>> seen;
    std::deque<Config> frontier;
    const Config initial = initial_config(protocol);
    seen.insert(initial.encode());
    frontier.push_back(initial);
    PreparedStep prepared;
    std::size_t expanded = 0;
    std::size_t checked_steps = 0;
    std::size_t multi_outcome_steps = 0;
    while (!frontier.empty()) {
      const Config config = std::move(frontier.front());
      frontier.pop_front();
      ++expanded;
      for (int pid = 0; pid < static_cast<int>(config.procs.size()); ++pid) {
        if (!config.enabled(pid)) continue;
        const auto want = naive_successors(protocol, config, pid);
        prepare_step(protocol, config, pid, &prepared);
        ASSERT_EQ(prepared.outcome_count(), static_cast<int>(want.size()));
        ASSERT_EQ(outcome_count(protocol, config, pid),
                  static_cast<int>(want.size()));
        std::vector<Successor> enumerated;
        enumerate_successors(protocol, config, pid, &enumerated);
        ASSERT_EQ(enumerated.size(), want.size());
        if (want.size() > 1) ++multi_outcome_steps;
        for (std::size_t choice = 0; choice < want.size(); ++choice) {
          const auto& [want_step, want_config] = want[choice];
          Config committed = config;
          EXPECT_EQ(commit_step(protocol, &committed,
                                static_cast<int>(choice), &prepared),
                    want_step);
          EXPECT_EQ(committed, want_config);
          Config applied = config;
          EXPECT_EQ(apply_step(protocol, &applied, pid,
                               static_cast<int>(choice)),
                    want_step);
          EXPECT_EQ(applied, want_config);
          EXPECT_EQ(enumerated[choice].step, want_step);
          EXPECT_EQ(enumerated[choice].config, want_config);
          ++checked_steps;
          if (seen.size() < kNodeBound &&
              seen.insert(want_config.encode()).second) {
            frontier.push_back(want_config);
          }
        }
      }
    }
    EXPECT_GE(expanded, 400u);  // dac3's whole graph has 441 nodes
    EXPECT_GT(checked_steps, expanded);
    if (c.multi_outcome) {
      EXPECT_GT(multi_outcome_steps, 0u);
    }
  }
}

// --- Packed words -----------------------------------------------------------

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kTwo62 = std::int64_t{1} << 62;

// The words at the edges of each byte length, and the value sentinels.
std::vector<std::int64_t> boundary_words() {
  std::vector<std::int64_t> words;
  for (std::int64_t w = kMin; w <= kMinOrdinary; ++w) words.push_back(w);
  for (std::int64_t w : {std::int64_t{-57}, std::int64_t{-56},
                         std::int64_t{55}, std::int64_t{56}, std::int64_t{100},
                         std::int64_t{600}, kTwo62 - 1, kTwo62}) {
    words.push_back(w);
  }
  for (std::int64_t w = kMax - 8; w != kMax; ++w) words.push_back(w);
  words.push_back(kMax);
  return words;
}

std::size_t packed_size(std::int64_t w) {
  std::uint8_t bytes[kMaxPackedWordBytes];
  return static_cast<std::size_t>(pack_word(w, bytes) - bytes);
}

// Packs each word alone and reads it back, then the whole sequence.
void expect_round_trip(const std::vector<std::int64_t>& words) {
  for (std::int64_t w : words) {
    std::uint8_t bytes[kMaxPackedWordBytes];
    const std::size_t size =
        static_cast<std::size_t>(pack_word(w, bytes) - bytes);
    std::size_t pos = 0;
    std::int64_t read = 0;
    ASSERT_TRUE(read_packed_word({bytes, size}, &pos, &read)) << w;
    EXPECT_EQ(read, w);
    EXPECT_EQ(pos, size) << w;
  }
  std::vector<std::uint8_t> packed;
  pack_words(words, &packed);
  std::vector<std::uint8_t> direct(kMaxPackedWordBytes * words.size());
  direct.resize(static_cast<std::size_t>(
      pack_words(words, direct.data()) - direct.data()));
  EXPECT_EQ(direct, packed);
  std::vector<std::int64_t> unpacked;
  for (std::size_t pos = 0; pos < packed.size();) {
    std::int64_t w = 0;
    ASSERT_TRUE(read_packed_word(packed, &pos, &w));
    unpacked.push_back(w);
  }
  EXPECT_EQ(unpacked, words);
}

TEST(PackedWords, BoundaryWordsRoundTrip) {
  expect_round_trip(boundary_words());
}

TEST(PackedWords, RandomWordsRoundTrip) {
  Xoshiro256 rng(23);
  std::vector<std::int64_t> words(10'000);
  for (std::int64_t& w : words) w = static_cast<std::int64_t>(rng.next());
  expect_round_trip(words);
}

TEST(PackedWords, ByteLengths) {
  // One byte: the 8 words at each end of the range (kNil ... kCrashSentinel
  // among them) and the small integers [-56, 55].
  for (std::int64_t w = kMin; w <= kMin + 7; ++w) EXPECT_EQ(packed_size(w), 1u);
  for (std::int64_t w = kMax - 7; w != kMax; ++w) EXPECT_EQ(packed_size(w), 1u);
  EXPECT_EQ(packed_size(kMax), 1u);
  for (std::int64_t w = -56; w <= 55; ++w) EXPECT_EQ(packed_size(w), 1u) << w;
  for (Value v : {kNil, kBottom, kDone, kAbortSentinel, kCrashSentinel}) {
    EXPECT_EQ(packed_size(v), 1u);
  }
  EXPECT_EQ(packed_size(kMin + 8), kMaxPackedWordBytes);
  EXPECT_EQ(packed_size(kMax - 8), kMaxPackedWordBytes);
  // Two bytes: just past the small integers, and the inputs 100-600.
  EXPECT_EQ(packed_size(-57), 2u);
  EXPECT_EQ(packed_size(56), 2u);
  for (std::int64_t w = 100; w <= 600; ++w) EXPECT_EQ(packed_size(w), 2u) << w;
  // Ten bytes: the high bit of u set.
  EXPECT_EQ(packed_size(kTwo62), kMaxPackedWordBytes);
  EXPECT_EQ(packed_size(kTwo62 - 1), kMaxPackedWordBytes);
  EXPECT_EQ(packed_size(kMinOrdinary), kMaxPackedWordBytes);
}

TEST(PackedWords, RejectsMalformedVarints) {
  auto reads = [](std::vector<std::uint8_t> bytes) {
    std::size_t pos = 0;
    std::int64_t w = 0;
    return read_packed_word(bytes, &pos, &w);
  };
  EXPECT_FALSE(reads({}));
  EXPECT_FALSE(reads({0x80}));        // truncated
  EXPECT_FALSE(reads({0x80, 0x00}));  // redundant zero last byte
  EXPECT_TRUE(reads({0x80, 0x01}));
  // Ten bytes carry at most 64 bits: the tenth may only be 0 or 1.
  std::vector<std::uint8_t> ten(9, 0xff);
  ten.push_back(0x01);
  EXPECT_TRUE(reads(ten));
  ten.back() = 0x02;
  EXPECT_FALSE(reads(ten));
  ten.back() = 0x81;  // an eleventh byte would follow
  ten.push_back(0x01);
  EXPECT_FALSE(reads(ten));
}

TEST(PackedWords, TruncatedOrOverlongKeyFailsToDecode) {
  auto protocol = std::make_shared<DacFromPacProtocol>(
      std::vector<Value>{100, 200, kMinOrdinary});
  Config config = initial_config(*protocol);
  apply_step(*protocol, &config, 1, 0);
  std::vector<std::uint8_t> packed;
  pack_words(config.encode(), &packed);
  Config decoded;
  ASSERT_TRUE(decode_packed_config_into(packed, &decoded).is_ok());
  EXPECT_EQ(decoded, config);
  // Any proper prefix is truncated: a varint cut short, or words missing.
  for (std::size_t size = 0; size < packed.size(); ++size) {
    EXPECT_FALSE(
        decode_packed_config_into({packed.data(), size}, &decoded).is_ok())
        << size;
  }
  // One more word, or one more byte, is trailing input.
  std::vector<std::uint8_t> longer = packed;
  pack_words(std::vector<std::int64_t>{0}, &longer);
  EXPECT_FALSE(decode_packed_config_into(longer, &decoded).is_ok());
  longer = packed;
  longer.push_back(0x80);
  EXPECT_FALSE(decode_packed_config_into(longer, &decoded).is_ok());
}

// Algorithm 2 on inputs whose words take two bytes, and on an order-preserving
// renaming whose words take one or ten: the same graph shape and verdict, and
// every node's stored key replays.
TEST(PackedWords, MultiByteInputsExploreAlike) {
  struct Run {
    modelcheck::TaskReport report;
    modelcheck::ConfigGraph graph;
  };
  auto run = [](const std::vector<Value>& inputs) {
    auto protocol = std::make_shared<DacFromPacProtocol>(inputs);
    auto report = modelcheck::check_dac_task(protocol, 0, inputs);
    auto graph = modelcheck::Explorer(protocol).explore();
    LBSA_CHECK(report.is_ok() && graph.is_ok());
    return Run{std::move(report).value(), std::move(graph).value()};
  };
  const Run plain = run({100, 200, 300, 400});
  const Run renamed = run({kMinOrdinary, -57, kTwo62, kMax});
  EXPECT_TRUE(plain.report.ok());
  EXPECT_EQ(renamed.report.ok(), plain.report.ok());
  EXPECT_EQ(renamed.report.node_count, plain.report.node_count);
  EXPECT_EQ(renamed.report.transition_count, plain.report.transition_count);
  const modelcheck::ConfigGraph& graph = renamed.graph;
  EXPECT_EQ(graph.node_count(), plain.graph.node_count());
  EXPECT_EQ(graph.transition_count(), plain.graph.transition_count());
  EXPECT_GT(graph.packed_config(graph.root()).size(),
            plain.graph.packed_config(graph.root()).size());
  for (std::uint32_t id = 0; id < graph.node_count(); ++id) {
    EXPECT_EQ(graph.path_to(id).size(), graph.depth(id));  // aborts if off
  }
}

}  // namespace
}  // namespace lbsa::sim
