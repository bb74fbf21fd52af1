// Product-composition sweeps: the combined objects ((n,m)-PAC, O' bundles)
// must behave EXACTLY like their standalone components running side by
// side — over every operation sequence up to a depth bound (for the
// deterministic (n,m)-PAC) and over randomized branch-synchronized walks
// (for the nondeterministic bundles). This is the composition lemma behind
// Observation 5.1(a) at spec level.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "spec/consensus_type.h"
#include "spec/ksa_type.h"
#include "spec/nm_pac_type.h"
#include "spec/oprime_type.h"
#include "spec/pac_type.h"

namespace lbsa::spec {
namespace {

TEST(ProductSweep, NmPacEqualsComponentsOnAllSequences) {
  // (3,2) is O_2 (Definition 6.1), and (2,3) has the larger consensus part.
  for (const auto& [n, m] : {std::pair{2, 2}, {3, 2}, {2, 3}}) {
    SCOPED_TRACE("(" + std::to_string(n) + "," + std::to_string(m) + ")");
    const NmPacType combined(n, m);
    const PacType pac(n);
    const NConsensusType cons(m);

    // Two consensus proposals, and a propose and a decide on every label.
    std::vector<Operation> alphabet = {make_propose_c(10), make_propose_c(20)};
    for (int i = 1; i <= n; ++i) {
      alphabet.push_back(make_propose_p(10 * i, i));
      alphabet.push_back(make_decide_p(i));
    }

    struct Walk {
      std::vector<std::int64_t> combined_state;
      std::vector<std::int64_t> pac_state;
      std::vector<std::int64_t> cons_state;
    };

    long steps_checked = 0;
    std::function<void(const Walk&, int)> dfs = [&](const Walk& walk,
                                                    int depth) {
      if (depth == 0) return;
      for (const Operation& op : alphabet) {
        const Outcome got = combined.apply_unique(walk.combined_state, op);
        Walk next = walk;
        next.combined_state = got.next_state;
        Value expected;
        if (op.code == OpCode::kProposeC) {
          const Outcome sub =
              cons.apply_unique(walk.cons_state, make_propose(op.arg0));
          expected = sub.response;
          next.cons_state = sub.next_state;
        } else if (op.code == OpCode::kProposeP) {
          const Outcome sub = pac.apply_unique(
              walk.pac_state, make_propose_labeled(op.arg0, op.arg1));
          expected = sub.response;
          next.pac_state = sub.next_state;
        } else {
          const Outcome sub =
              pac.apply_unique(walk.pac_state, make_decide_labeled(op.arg0));
          expected = sub.response;
          next.pac_state = sub.next_state;
        }
        ++steps_checked;
        ASSERT_EQ(got.response, expected)
            << combined.operation_to_string(op) << " at depth " << depth;
        // The combined state must literally be the concatenation.
        std::vector<std::int64_t> concat = next.pac_state;
        concat.insert(concat.end(), next.cons_state.begin(),
                      next.cons_state.end());
        ASSERT_EQ(next.combined_state, concat);
        dfs(next, depth - 1);
      }
    };

    Walk root{combined.initial_state(), pac.initial_state(),
              cons.initial_state()};
    dfs(root, 4);
    EXPECT_GT(steps_checked, 1000);
  }
}

class OPrimeProductWalk : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OPrimeProductWalk, BundleMatchesStandaloneMembers) {
  // Randomized branch-synchronized walk: at every step, the bundle's
  // outcome list must mirror the standalone member's (same responses, same
  // order — the bundle delegates), and picking the same branch keeps the
  // states in lockstep.
  Xoshiro256 rng(GetParam() * 31337 + 7);
  const OPrimeType bundle(std::vector<int>{2, 4, spec::kUnboundedPorts});
  std::vector<KsaType> members = {KsaType(2, 1), KsaType(4, 2),
                                  KsaType(kUnboundedPorts, 3)};

  auto bundle_state = bundle.initial_state();
  std::vector<std::vector<std::int64_t>> member_states;
  for (const KsaType& m : members) member_states.push_back(m.initial_state());

  for (int step = 0; step < 60; ++step) {
    const int level = static_cast<int>(rng.next_in_range(1, 3));
    const Value v = 100 + rng.next_in_range(0, 4);

    std::vector<Outcome> bundle_outcomes;
    bundle.apply(bundle_state, make_propose_k(v, level), &bundle_outcomes);
    std::vector<Outcome> member_outcomes;
    members[static_cast<size_t>(level - 1)].apply(
        member_states[static_cast<size_t>(level - 1)], make_propose(v),
        &member_outcomes);

    ASSERT_EQ(bundle_outcomes.size(), member_outcomes.size());
    for (size_t i = 0; i < bundle_outcomes.size(); ++i) {
      ASSERT_EQ(bundle_outcomes[i].response, member_outcomes[i].response);
    }
    const size_t pick =
        static_cast<size_t>(rng.next_below(bundle_outcomes.size()));
    bundle_state = bundle_outcomes[pick].next_state;
    member_states[static_cast<size_t>(level - 1)] =
        member_outcomes[pick].next_state;
    // Other members' slices must be untouched.
    for (int k = 1; k <= 3; ++k) {
      const auto slice = bundle.member_state(bundle_state, k);
      ASSERT_TRUE(std::equal(slice.begin(), slice.end(),
                             member_states[static_cast<size_t>(k - 1)]
                                 .begin()))
          << "level " << k << " step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OPrimeProductWalk,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace lbsa::spec
