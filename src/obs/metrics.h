// Low-overhead process-wide metrics: named counters and gauges behind one
// global Registry.
//
// Design goals, in order:
//   1. Near-zero cost when no sink is attached. Every mutation starts with a
//      single relaxed atomic load of the global enabled flag; when metrics
//      are off (the default) that branch is the whole cost. Sites that want
//      literal zero cost compile against the LBSA_OBS_DISABLED macro layer
//      in obs/obs.h, which erases the calls entirely.
//   2. Scalable accumulation. Counters shard their cells by a thread-local
//      stripe index (each thread owns a cache line), so worker pools — the
//      parallel explorer, the blind fuzzer — never contend on a hot
//      counter.
//   3. Deterministic snapshots. A snapshot merges the stripes by summation
//      and sorts rows by metric name, so any quantity whose *total* is
//      schedule-independent reports byte-identically for every thread
//      count. Metrics whose totals are inherently schedule-dependent (probe
//      counts of a concurrent table, live execution tallies that overrun a
//      deterministic cutoff) are registered as Stability::kVolatile and are
//      excluded from MetricsSnapshot::stable_json(), the string the
//      determinism tests compare.
//
// Handles returned by the Registry are valid for the process lifetime;
// instrumentation sites cache them in function-local statics (see the
// LBSA_OBS_* macros in obs/obs.h).
#ifndef LBSA_OBS_METRICS_H_
#define LBSA_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace lbsa::obs {

// Stripe count for sharded counter accumulation. A modest power of two:
// enough that every hardware thread of a typical worker pool lands on its
// own cache line, small enough that snapshot merges stay cheap.
inline constexpr int kMetricStripes = 16;

// Whether totals are schedule-independent (byte-identical across thread
// counts and engines) or may legitimately vary run to run.
enum class Stability { kStable, kVolatile };

// Process-wide metrics switch. Off by default; CLIs flip it on when a
// --metrics-json sink is attached, tests flip it around measured regions.
bool metrics_enabled();
void set_metrics_enabled(bool enabled);

namespace internal {
// Stable per-thread stripe index in [0, kMetricStripes).
int this_thread_stripe();
inline std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}
}  // namespace internal

inline bool metrics_enabled() {
  return internal::enabled_flag().load(std::memory_order_relaxed);
}

// A monotone sum. add() is wait-free: one relaxed fetch_add on the calling
// thread's stripe.
class Counter {
 public:
  Counter(std::string name, Stability stability)
      : name_(std::move(name)), stability_(stability) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t delta = 1) {
    if (!metrics_enabled()) return;
    cells_[internal::this_thread_stripe()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (const Cell& cell : cells_) {
      sum += cell.value.load(std::memory_order_relaxed);
    }
    return sum;
  }

  void reset() {
    for (Cell& cell : cells_) cell.value.store(0, std::memory_order_relaxed);
  }

  const std::string& name() const { return name_; }
  Stability stability() const { return stability_; }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> value{0};
  };
  std::string name_;
  Stability stability_;
  Cell cells_[kMetricStripes];
};

// A point-in-time level. set() is last-write-wins and therefore only
// deterministic when called from serial sections (a coordinator thread, an
// end-of-run summary); observe_max() folds a running maximum and is
// deterministic whenever the *set* of observed values is.
class Gauge {
 public:
  Gauge(std::string name, Stability stability)
      : name_(std::move(name)), stability_(stability) {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t value) {
    if (!metrics_enabled()) return;
    value_.store(value, std::memory_order_relaxed);
  }

  void observe_max(std::int64_t value) {
    if (!metrics_enabled()) return;
    std::int64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < value && !value_.compare_exchange_weak(
                              cur, value, std::memory_order_relaxed)) {
    }
  }

  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

  const std::string& name() const { return name_; }
  Stability stability() const { return stability_; }

 private:
  std::string name_;
  Stability stability_;
  std::atomic<std::int64_t> value_{0};
};

// One merged, name-sorted view of every registered metric.
struct MetricsSnapshot {
  struct CounterRow {
    std::string name;
    Stability stability;
    std::uint64_t value = 0;
  };
  struct GaugeRow {
    std::string name;
    Stability stability;
    std::int64_t value = 0;
  };

  std::vector<CounterRow> counters;
  std::vector<GaugeRow> gauges;

  // JSON object:
  //   {"counters":{...},"gauges":{...}
  //    [,"volatile":{"counters":{...},"gauges":{...}}]}
  // Rows are name-sorted, so equal snapshots serialize byte-identically.
  std::string to_json(bool include_volatile = true) const;
  // Only the schedule-independent metrics — the string the determinism
  // tests compare across thread counts.
  std::string stable_json() const { return to_json(false); }
};

// The process-wide registry. Metric handles are unique per name: a second
// registration of the same name returns the existing handle (and aborts if
// the kind or stability disagrees — one name, one meaning).
class Registry {
 public:
  static Registry& global();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* counter(std::string_view name,
                   Stability stability = Stability::kStable);
  Gauge* gauge(std::string_view name,
               Stability stability = Stability::kStable);

  MetricsSnapshot snapshot() const;

  // Zeroes every registered metric (handles stay valid). Establish
  // quiescence first: concurrent mutators make the result meaningless.
  void reset_values();

 private:
  mutable std::mutex mu_;
  // deques: stable addresses across registration.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
};

inline void set_metrics_enabled(bool enabled) {
  internal::enabled_flag().store(enabled, std::memory_order_relaxed);
}

}  // namespace lbsa::obs

#endif  // LBSA_OBS_METRICS_H_
