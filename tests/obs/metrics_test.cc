#include "obs/metrics.h"

#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace lbsa::obs {
namespace {

// Flips the global metrics switch for one test and restores the default-off
// state afterwards, so tests can't leak an enabled flag into each other.
class MetricsEnabledScope {
 public:
  explicit MetricsEnabledScope(bool enabled) { set_metrics_enabled(enabled); }
  ~MetricsEnabledScope() { set_metrics_enabled(false); }
};

TEST(Counter, DisabledMutationsAreNoops) {
  ASSERT_FALSE(metrics_enabled()) << "metrics must default to off";
  Counter c("test.disabled", Stability::kStable);
  c.add(7);
  EXPECT_EQ(c.total(), 0u);
}

TEST(Counter, StripesSumAcrossThreads) {
  MetricsEnabledScope on(true);
  Counter c("test.striped", Stability::kStable);
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < kAddsPerThread; ++i) c.add(1);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.total(), static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
  c.reset();
  EXPECT_EQ(c.total(), 0u);
}

TEST(Gauge, ObserveMaxFoldsRunningMaximum) {
  MetricsEnabledScope on(true);
  Gauge g("test.max", Stability::kStable);
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&g, t] {
      for (int i = 0; i < 1000; ++i) g.observe_max(t * 1000 + i);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(g.value(), 7999);
}

TEST(Registry, ReRegistrationReturnsSameHandle) {
  Registry r;
  Counter* a = r.counter("x.count");
  Counter* b = r.counter("x.count");
  EXPECT_EQ(a, b);
  EXPECT_NE(r.gauge("x.count"), nullptr)
      << "same name, different kind lives in a separate namespace";
}

TEST(Registry, SnapshotSortsByNameAndSplitsStability) {
  MetricsEnabledScope on(true);
  Registry r;
  r.counter("b.stable")->add(2);
  r.counter("a.stable")->add(1);
  r.counter("z.volatile", Stability::kVolatile)->add(9);
  r.gauge("g.depth")->set(4);

  const MetricsSnapshot snap = r.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "a.stable");
  EXPECT_EQ(snap.counters[1].name, "b.stable");
  EXPECT_EQ(snap.counters[2].name, "z.volatile");
  EXPECT_EQ(snap.counters[2].stability, Stability::kVolatile);

  const std::string stable = snap.stable_json();
  EXPECT_NE(stable.find("a.stable"), std::string::npos);
  EXPECT_EQ(stable.find("z.volatile"), std::string::npos)
      << "volatile metrics must not appear in the stable comparison string";
  const std::string full = snap.to_json();
  EXPECT_NE(full.find("z.volatile"), std::string::npos);
  EXPECT_NE(full.find("\"volatile\""), std::string::npos);
}

TEST(Registry, SnapshotMergeIsDeterministicAcrossThreadCounts) {
  MetricsEnabledScope on(true);
  // The same logical workload executed by 1, 2, and 8 threads must produce
  // byte-identical stable snapshots: stripe merge is a plain sum, and a
  // running maximum does not depend on the order of its observations.
  std::string baseline;
  for (int threads : {1, 2, 8}) {
    Registry r;
    Counter* work = r.counter("merge.work");
    Gauge* peak = r.gauge("merge.peak");
    constexpr int kTotalOps = 9600;
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (int i = t; i < kTotalOps; i += threads) {
          work->add(1);
          peak->observe_max(i % 37);
        }
      });
    }
    for (auto& w : workers) w.join();
    const std::string json = r.snapshot().stable_json();
    if (baseline.empty()) {
      baseline = json;
    } else {
      EXPECT_EQ(json, baseline) << "threads=" << threads;
    }
  }
}

TEST(Registry, ResetValuesZeroesButKeepsHandles) {
  MetricsEnabledScope on(true);
  Registry r;
  Counter* c = r.counter("reset.count");
  r.gauge("reset.gauge")->set(5);
  c->add(3);
  r.reset_values();
  EXPECT_EQ(c->total(), 0u);
  const MetricsSnapshot snap = r.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].value, 0u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, 0);
  c->add(2);
  EXPECT_EQ(c->total(), 2u);
}

}  // namespace
}  // namespace lbsa::obs
