// Properties of the symmetry layer (sim/symmetry.h): group enumeration,
// equivariant renaming, and the canonicalization contract the reduced
// explorer relies on —
//   * canonicalize is idempotent,
//   * canon(g(C)) == canon(C) for every group element g (permutation
//     invariance), on RNG-hammered reachable configurations,
//   * the canonical encoding is the exact minimum over the enumerated
//     group, and encode() round-trips through it,
//   * the tie-class search returns the brute-force oracle's key and
//     discovery perm, and orbit_size the number of distinct group images.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <set>
#include <vector>

#include "base/hashing.h"
#include "base/rng.h"
#include "protocols/consensus_from_nm_pac.h"
#include "protocols/dac_from_nm_pac.h"
#include "protocols/dac_from_pac.h"
#include "protocols/one_shot.h"
#include "protocols/straw_dac.h"
#include "sim/config.h"
#include "sim/symmetry.h"
#include "spec/nm_pac_type.h"

namespace lbsa::sim {
namespace {

using protocols::ConsensusFromNmPacProtocol;
using protocols::DacFromNmPacProtocol;
using protocols::DacFromPacProtocol;
using protocols::StrawDacFallbackProtocol;
using protocols::make_consensus_via_n_consensus;

// Random walk of `steps` steps from the initial configuration (uniform
// enabled pid, uniform outcome). Stops early if the run halts.
Config random_reachable_config(const Protocol& protocol, int steps,
                               Xoshiro256* rng) {
  Config config = initial_config(protocol);
  std::vector<Successor> successors;
  for (int i = 0; i < steps && !config.halted(); ++i) {
    std::vector<int> enabled;
    for (int pid = 0; pid < protocol.process_count(); ++pid) {
      if (config.enabled(pid)) enabled.push_back(pid);
    }
    const int pid =
        enabled[static_cast<size_t>(rng->next_below(enabled.size()))];
    const int choices = outcome_count(protocol, config, pid);
    apply_step(protocol, &config, pid,
               static_cast<int>(rng->next_below(
                   static_cast<std::uint64_t>(choices))));
  }
  return config;
}

TEST(SymmetrySpec, NoneIsTrivial) {
  const SymmetrySpec spec = SymmetrySpec::none(4);
  EXPECT_TRUE(spec.trivial());
  EXPECT_EQ(symmetry_group(spec).size(), 1u);
  for (int pid = 0; pid < 4; ++pid) EXPECT_TRUE(spec.is_singleton(pid));
}

TEST(SymmetrySpec, FullGroupIsSymmetricGroup) {
  const SymmetrySpec spec = SymmetrySpec::full(3);
  EXPECT_FALSE(spec.trivial());
  const auto group = symmetry_group(spec);
  EXPECT_EQ(group.size(), 6u);  // |S_3|
  // Identity first: the brute-force oracle starts from it, and ties go to
  // the earliest element.
  EXPECT_EQ(group[0], (std::vector<int>{0, 1, 2}));
  // All elements distinct permutations.
  auto sorted = group;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
}

TEST(SymmetrySpec, ByValueGroupsEqualInputsAndRespectsFixed) {
  // Inputs {7, 9, 9, 7} with pid 0 pinned: orbits {0}, {1,2}, {3}.
  const SymmetrySpec spec = SymmetrySpec::by_value({7, 9, 9, 7}, {0});
  EXPECT_TRUE(spec.is_singleton(0));
  EXPECT_FALSE(spec.is_singleton(1));
  EXPECT_TRUE(spec.is_singleton(3));  // 3 matches 0's value, but 0 is fixed
  EXPECT_EQ(symmetry_group(spec).size(), 2u);
}

TEST(SymmetrySpec, GroupElementsPreserveOrbits) {
  const SymmetrySpec spec = SymmetrySpec::by_value({1, 2, 2, 2, 1});
  const auto group = symmetry_group(spec);
  EXPECT_EQ(group.size(), 12u);  // 2! * 3!
  for (const auto& perm : group) {
    for (int p = 0; p < 5; ++p) {
      EXPECT_EQ(spec.orbit_of[static_cast<size_t>(perm[static_cast<size_t>(p)])],
                spec.orbit_of[static_cast<size_t>(p)]);
    }
  }
}

TEST(Symmetry, ApplyPermutationInverseRoundTrips) {
  auto protocol = std::make_shared<DacFromPacProtocol>(
      std::vector<Value>{100, 100, 100});
  Xoshiro256 rng(7);
  const std::vector<int> perm{0, 2, 1};  // its own inverse
  for (int trial = 0; trial < 50; ++trial) {
    const Config config = random_reachable_config(*protocol, 12, &rng);
    Config renamed = config;
    apply_pid_permutation(*protocol, perm, &renamed);
    apply_pid_permutation(*protocol, perm, &renamed);
    EXPECT_EQ(renamed, config);
  }
}

struct CanonCase {
  const char* name;
  std::shared_ptr<const Protocol> protocol;
};

std::vector<CanonCase> canon_cases() {
  return {
      {"dac3-equal", std::make_shared<DacFromPacProtocol>(
                         std::vector<Value>{100, 100, 100})},
      {"dac4-equal", std::make_shared<DacFromPacProtocol>(
                         std::vector<Value>{100, 100, 100, 100})},
      {"consensus3-equal", make_consensus_via_n_consensus({100, 100, 100})},
      {"strawdac3-equal", std::make_shared<StrawDacFallbackProtocol>(
                              std::vector<Value>{100, 100, 100})},
      // Composite (n,m)-PAC states: the P-part stores pid-derived labels
      // and V-slots, the C-part only values — NmPacType::rename_pids must
      // keep every canonicalizer property on both ports.
      {"dac-nmpac32-equal", std::make_shared<DacFromNmPacProtocol>(
                                std::vector<Value>{100, 100, 100}, 2)},
      {"consensus-nmpac32-equal",
       std::make_shared<ConsensusFromNmPacProtocol>(
           3, 2, std::vector<Value>{100, 100})},
      // Interleaved orbits {0,2,4} and {1,3}: slots of one orbit are not
      // contiguous, with pid-free objects only (strawdac) and with a
      // pid-storing (n,m)-PAC object (consensus port).
      {"strawdac5-interleaved",
       std::make_shared<StrawDacFallbackProtocol>(
           std::vector<Value>{100, 200, 100, 200, 100})},
      {"consensus-nmpac55-interleaved",
       std::make_shared<ConsensusFromNmPacProtocol>(
           5, 5, std::vector<Value>{100, 200, 100, 200, 100})},
      // |G| = 120: pid 0 pinned, pids 1..5 interchangeable, labels in the
      // P-part deciding between tied blocks.
      {"dac-nmpac63-equal", std::make_shared<DacFromNmPacProtocol>(
                                std::vector<Value>(6, 100), 3)},
  };
}

// The orbit by definition: the number of distinct encodings among the
// group's images of config.
std::uint64_t brute_force_orbit_size(const Protocol& protocol,
                                     const std::vector<std::vector<int>>& group,
                                     const Config& config) {
  std::set<std::vector<std::int64_t>> images;
  for (const auto& g : group) {
    Config image = config;
    apply_pid_permutation(protocol, g, &image);
    images.insert(image.encode());
  }
  return images.size();
}

TEST(Canonicalizer, IdempotentAndPermutationInvariant) {
  for (const CanonCase& c : canon_cases()) {
    SCOPED_TRACE(c.name);
    const Canonicalizer canon(c.protocol, c.protocol->symmetry());
    ASSERT_GE(canon.group_size(), 2u);
    const auto group = symmetry_group(canon.spec());
    Xoshiro256 rng(42);
    for (int trial = 0; trial < 40; ++trial) {
      Config config = random_reachable_config(*c.protocol, 15, &rng);
      Config canonical = config;
      canon.canonicalize(&canonical);
      // Idempotent: canonicalizing the representative is the identity.
      Config twice = canonical;
      std::vector<std::uint8_t> perm;
      canon.canonicalize(&twice, &perm);
      EXPECT_EQ(twice, canonical);
      EXPECT_TRUE(perm.empty()) << "representative got renamed again";
      // Invariant: every group image canonicalizes to the same
      // representative.
      for (const auto& g : group) {
        Config image = config;
        apply_pid_permutation(*c.protocol, g, &image);
        canon.canonicalize(&image);
        EXPECT_EQ(image, canonical);
      }
    }
  }
}

TEST(Canonicalizer, CanonicalEncodingIsGroupMinimumAndRoundTrips) {
  for (const CanonCase& c : canon_cases()) {
    SCOPED_TRACE(c.name);
    const Canonicalizer canon(c.protocol, c.protocol->symmetry());
    const auto group = symmetry_group(canon.spec());
    Xoshiro256 rng(3);
    std::vector<std::int64_t> key;
    for (int trial = 0; trial < 40; ++trial) {
      const Config config = random_reachable_config(*c.protocol, 15, &rng);
      canon.canonical_encode_into(config, &key);
      // Exact minimum over the enumerated group.
      std::vector<std::int64_t> best;
      for (const auto& g : group) {
        Config image = config;
        apply_pid_permutation(*c.protocol, g, &image);
        const auto enc = image.encode();
        if (best.empty() || enc < best) best = enc;
      }
      EXPECT_EQ(key, best);
      // encode() of the canonicalized configuration IS the canonical key
      // (round-trip identity the interner relies on).
      Config canonical = config;
      canon.canonicalize(&canonical);
      EXPECT_EQ(canonical.encode(), key);
    }
  }
}

TEST(Canonicalizer, OrbitSizeDividesGroupOrder) {
  for (const CanonCase& c : canon_cases()) {
    SCOPED_TRACE(c.name);
    const Canonicalizer canon(c.protocol, c.protocol->symmetry());
    Xoshiro256 rng(11);
    for (int trial = 0; trial < 20; ++trial) {
      const Config config = random_reachable_config(*c.protocol, 15, &rng);
      const std::uint64_t orbit = canon.orbit_size(config);
      ASSERT_GE(orbit, 1u);
      EXPECT_EQ(canon.group_size() % orbit, 0u)
          << orbit << " does not divide " << canon.group_size();
    }
  }
}

TEST(Canonicalizer, OrbitSizeMatchesBruteForceOrbit) {
  for (const CanonCase& c : canon_cases()) {
    SCOPED_TRACE(c.name);
    const Canonicalizer canon(c.protocol, c.protocol->symmetry());
    const auto group = symmetry_group(canon.spec());
    CanonScratch scratch;  // reused across calls, as full_node_estimate does
    Xoshiro256 rng(13);
    for (int trial = 0; trial < 40; ++trial) {
      const Config config = random_reachable_config(*c.protocol, 20, &rng);
      const std::uint64_t expected =
          brute_force_orbit_size(*c.protocol, group, config);
      EXPECT_EQ(canon.orbit_size(config, &scratch), expected);
      EXPECT_EQ(canon.orbit_size(config), expected);
    }
  }
}

TEST(Canonicalizer, InitialConfigIsItsOwnOrbitRepresentative) {
  for (const CanonCase& c : canon_cases()) {
    SCOPED_TRACE(c.name);
    const Canonicalizer canon(c.protocol, c.protocol->symmetry());
    Config init = initial_config(*c.protocol);
    // The declared group fixes the initial configuration (checked at
    // construction), so its orbit is a singleton.
    EXPECT_EQ(canon.orbit_size(init), 1u);
    const Config before = init;
    canon.canonicalize(&init);
    EXPECT_EQ(init, before);
  }
}

TEST(Symmetry, NmPacRenameEquivariance) {
  // rename(apply(s, op)) == apply(rename(s), rename(op)) on the composite
  // (n,m)-PAC state: P-port labels are pid-derived (label = pid + 1), C-port
  // operations carry only values and must pass through untouched.
  spec::NmPacType type(3, 2);
  const std::vector<int> perm{1, 0, 2};  // swap pids 0 and 1
  const std::vector<std::pair<spec::Operation, spec::Operation>> steps{
      {spec::make_propose_p(700, 2), spec::make_propose_p(700, 1)},
      {spec::make_decide_p(1), spec::make_decide_p(2)},
      {spec::make_propose_c(500), spec::make_propose_c(500)},
  };
  std::vector<std::int64_t> state = type.initial_state();
  std::vector<std::int64_t> renamed_run = type.initial_state();
  for (const auto& [op, renamed_op] : steps) {
    const auto outcome = type.apply_unique(state, op);
    const auto renamed_outcome = type.apply_unique(renamed_run, renamed_op);
    EXPECT_EQ(outcome.response, renamed_outcome.response);
    state = outcome.next_state;
    renamed_run = renamed_outcome.next_state;

    std::vector<std::int64_t> renamed_state = state;
    type.rename_pids(perm, &renamed_state);
    EXPECT_EQ(renamed_state, renamed_run);
  }
}

TEST(Symmetry, NmPacRenamePadsShortPermutations) {
  // A consensus-port protocol runs p <= m < n processes, so the model
  // checker hands rename_pids a p-sized permutation: pids beyond it are
  // fixed points of the padded renaming.
  spec::NmPacType type(4, 2);
  const std::vector<int> short_perm{1, 0};
  std::vector<std::int64_t> state = type.initial_state();
  for (const auto& op :
       {spec::make_propose_p(700, 1), spec::make_propose_p(800, 2),
        spec::make_propose_p(900, 3)}) {
    state = type.apply_unique(state, op).next_state;
  }
  std::vector<std::int64_t> renamed = state;
  type.rename_pids(short_perm, &renamed);

  std::vector<std::int64_t> expected = type.initial_state();
  for (const auto& op :
       {spec::make_propose_p(700, 2), spec::make_propose_p(800, 1),
        spec::make_propose_p(900, 3)}) {  // labels 1 <-> 2, label 3 fixed
    expected = type.apply_unique(expected, op).next_state;
  }
  EXPECT_EQ(renamed, expected);
}

// --- Tie-class / cached canonical search vs the brute-force oracle --------

// The production path (tie-class search, orbit cache) must match the
// retained brute-force reference bit for bit — key AND discovery perm.
// This is also the pairing-contract net for rename_pids / renames_pids: a
// type that rewrites pids while claiming it doesn't would make the search,
// which renames only the renames_pids() objects, diverge from the oracle.
TEST(Canonicalizer, PrunedAndCachedSearchMatchesBruteForceOracle) {
  for (const CanonCase& c : canon_cases()) {
    SCOPED_TRACE(c.name);
    const Canonicalizer canon(c.protocol, c.protocol->symmetry());
    CanonScratch scratch;
    scratch.attach_cache(std::make_shared<CanonCache>(std::size_t{1} << 16));
    Xoshiro256 rng(2026);
    std::vector<std::int64_t> pruned, oracle;
    std::vector<std::uint8_t> pruned_perm, oracle_perm;
    for (int trial = 0; trial < 150; ++trial) {
      const Config config = random_reachable_config(*c.protocol, 20, &rng);
      canon.brute_force_canonical_encode_into(config, &oracle, &oracle_perm);
      canon.canonical_encode_into(config, &pruned, &pruned_perm, &scratch);
      ASSERT_EQ(pruned, oracle);
      ASSERT_EQ(pruned_perm, oracle_perm);
      // Ask again: the second query answers from the cache and must agree.
      canon.canonical_encode_into(config, &pruned, &pruned_perm, &scratch);
      ASSERT_EQ(pruned, oracle);
      ASSERT_EQ(pruned_perm, oracle_perm);
    }
    EXPECT_GT(scratch.cache_hits, 0u);
    EXPECT_GT(scratch.cache_misses, 0u);
  }
}

TEST(Canonicalizer, IdempotentWithCacheEnabled) {
  for (const CanonCase& c : canon_cases()) {
    SCOPED_TRACE(c.name);
    const Canonicalizer canon(c.protocol, c.protocol->symmetry());
    CanonScratch scratch;
    scratch.attach_cache(std::make_shared<CanonCache>(std::size_t{1} << 16));
    Xoshiro256 rng(9);
    std::vector<std::int64_t> once, twice;
    std::vector<std::uint8_t> perm;
    for (int trial = 0; trial < 80; ++trial) {
      const Config config = random_reachable_config(*c.protocol, 20, &rng);
      canon.canonical_encode_into(config, &once, &perm, &scratch);
      Config rep = config;
      canon.canonicalize(&rep, &perm, &scratch);
      // canon(canon(x)) == canon(x), with the cache live on both queries.
      canon.canonical_encode_into(rep, &twice, &perm, &scratch);
      EXPECT_EQ(twice, once);
      EXPECT_TRUE(perm.empty()) << "representative got renamed again";
    }
  }
}

// Every node of the first BFS levels of the unreduced dac-nmPAC 6 graph
// (|G| = 120), explored here without the model checker: key, perm and
// orbit size match the brute-force definitions, cold and through a cache.
TEST(Canonicalizer, BoundedDacNmPac6GraphMatchesBruteForceOracle) {
  const auto protocol =
      std::make_shared<DacFromNmPacProtocol>(std::vector<Value>(6, 100), 3);
  const Canonicalizer canon(protocol, protocol->symmetry());
  ASSERT_EQ(canon.group_size(), 120u);
  const auto group = symmetry_group(canon.spec());
  CanonScratch cached;
  cached.attach_cache(std::make_shared<CanonCache>(std::size_t{1} << 20));
  CanonScratch cold;

  constexpr std::size_t kNodeBound = 2000;
  std::set<std::vector<std::int64_t>> seen;
  std::deque<Config> frontier;
  const Config initial = initial_config(*protocol);
  seen.insert(initial.encode());
  frontier.push_back(initial);
  std::vector<Successor> successors;
  std::vector<std::int64_t> key, oracle;
  std::vector<std::uint8_t> perm, oracle_perm;
  std::size_t checked = 0;
  std::size_t renamed = 0;
  while (!frontier.empty()) {
    const Config config = std::move(frontier.front());
    frontier.pop_front();
    canon.brute_force_canonical_encode_into(config, &oracle, &oracle_perm);
    for (CanonScratch* scratch : {&cold, &cached}) {
      canon.canonical_encode_into(config, &key, &perm, scratch);
      ASSERT_EQ(key, oracle) << "node " << checked;
      ASSERT_EQ(perm, oracle_perm) << "node " << checked;
    }
    ASSERT_EQ(canon.orbit_size(config, &cold),
              brute_force_orbit_size(*protocol, group, config))
        << "node " << checked;
    ++checked;
    if (!oracle_perm.empty()) ++renamed;
    for (int pid = 0; pid < protocol->process_count(); ++pid) {
      if (!config.enabled(pid)) continue;
      successors.clear();
      enumerate_successors(*protocol, config, pid, &successors);
      for (Successor& s : successors) {
        if (seen.size() < kNodeBound && seen.insert(s.config.encode()).second) {
          frontier.push_back(std::move(s.config));
        }
      }
    }
  }
  EXPECT_EQ(checked, kNodeBound);
  EXPECT_GT(renamed, 0u);
  EXPECT_GT(cold.prunes, 0u);  // some tie reached the object tie-break
}

// A cache far too small for the working set epoch-resets instead of
// evicting; correctness must be untouched (it is lossy, never wrong).
TEST(Canonicalizer, TinyCacheEpochResetsStayCorrect) {
  const CanonCase c = canon_cases().front();
  const Canonicalizer canon(c.protocol, c.protocol->symmetry());
  CanonScratch scratch;
  // Below the clamp floor: the smallest cache the class will build.
  auto cache = std::make_shared<CanonCache>(1);
  scratch.attach_cache(cache);
  Xoshiro256 rng(17);
  std::vector<std::int64_t> got, oracle;
  std::vector<std::uint8_t> got_perm, oracle_perm;
  for (int trial = 0; trial < 400; ++trial) {
    const Config config = random_reachable_config(*c.protocol, 25, &rng);
    canon.canonical_encode_into(config, &got, &got_perm, &scratch);
    canon.brute_force_canonical_encode_into(config, &oracle, &oracle_perm);
    ASSERT_EQ(got, oracle);
    ASSERT_EQ(got_perm, oracle_perm);
  }
}

TEST(CanonCache, ExactKeyVerifyAndUniverseInvalidation) {
  CanonCache cache(std::size_t{1} << 14);
  cache.ensure_universe(1);
  const std::vector<std::int64_t> raw{4, 1, 2, 3};
  const std::vector<std::int64_t> canonical{4, 1, 1, 9};
  const std::vector<std::uint8_t> perm{0, 2, 1};
  const Hash128 fp = hash_words_128(raw);
  std::vector<std::int64_t> out;
  std::vector<std::uint8_t> perm_out;
  EXPECT_FALSE(cache.lookup(fp, raw, &out, &perm_out));
  cache.insert(fp, raw, canonical, perm);
  ASSERT_TRUE(cache.lookup(fp, raw, &out, &perm_out));
  EXPECT_EQ(out, canonical);
  EXPECT_EQ(perm_out, perm);
  // Hits verify the full raw key, not just the fingerprint: a different
  // raw with a forged matching fingerprint must miss.
  const std::vector<std::int64_t> other{4, 1, 2, 7};
  EXPECT_FALSE(cache.lookup(fp, other, &out, &perm_out));
  // A universe change drops the entries for good.
  cache.ensure_universe(2);
  EXPECT_FALSE(cache.lookup(fp, raw, &out, &perm_out));
  cache.ensure_universe(2);  // same salt again: still empty, no flapping
  EXPECT_FALSE(cache.lookup(fp, raw, &out, &perm_out));
}

TEST(CanonCachePool, OneCachePerWorkerKeptAcrossCalls) {
  CanonCachePool pool(std::size_t{1} << 14);
  const auto w0 = pool.worker_cache(0, /*salt=*/5);
  const auto w1 = pool.worker_cache(1, /*salt=*/5);
  EXPECT_NE(w0, nullptr);
  EXPECT_NE(w0, w1);
  // Same worker, same salt: the same warm cache comes back.
  EXPECT_EQ(pool.worker_cache(0, /*salt=*/5), w0);
}

using SymmetryGroupDeathTest = ::testing::Test;

TEST(SymmetryGroupDeathTest, TooLargeGroupNamesOrbitSizesAndByValueFix) {
  // Two orbits of six (720 * 720 arrangements) blow the enumeration cap;
  // the abort message must name the orbit sizes and point at by_value.
  std::vector<Value> inputs(12, 100);
  for (int i = 6; i < 12; ++i) inputs[static_cast<std::size_t>(i)] = 200;
  const SymmetrySpec spec = SymmetrySpec::by_value(inputs, {});
  EXPECT_DEATH(symmetry_group(spec),
               "orbit sizes \\{6, 6\\}.*SymmetrySpec::by_value");
}

TEST(Symmetry, DistinctInputsDeclareTrivialGroups) {
  // by_value produces singleton orbits when inputs differ, so protocols
  // with distinguishable processes opt out of reduction automatically.
  auto protocol = std::make_shared<DacFromPacProtocol>(
      std::vector<Value>{100, 101, 102});
  EXPECT_TRUE(protocol->symmetry().trivial());
}

}  // namespace
}  // namespace lbsa::sim
