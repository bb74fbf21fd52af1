// Instrumentation entry points. Hot paths use these macros rather than the
// Registry/Tracer APIs directly, for two reasons:
//
//   * Handle caching. The enabled expansion declares a function-local static
//     metric pointer, so name lookup happens once per site, not per call.
//   * Compile-time erasure. Defining LBSA_OBS_DISABLED for a translation
//     unit replaces every macro with a no-op that still type-checks its
//     arguments (so the disabled build can't rot). Only call sites change —
//     class definitions are identical in both modes, so mixing instrumented
//     and erased TUs in one binary is ODR-safe.
//
// Runtime cost when enabled-at-compile-time but switched off (the default):
// one relaxed atomic load per call — see obs/metrics.h.
//
//   LBSA_OBS_COUNTER_ADD("explore.nodes", 1);
//   LBSA_OBS_COUNTER_ADD_V("explore.canon.cache_hits", n);   // volatile metric
//   LBSA_OBS_GAUGE_SET("explore.max_depth", depth);
//   LBSA_OBS_GAUGE_MAX("fuzz.pool.peak", pool.size());
//   LBSA_OBS_SPAN(span, "explore.level", lbsa::obs::kCatPhase, /*lane=*/0);
//   span.arg("level", depth);
#ifndef LBSA_OBS_OBS_H_
#define LBSA_OBS_OBS_H_

#include "obs/metrics.h"
#include "obs/trace.h"

#if !defined(LBSA_OBS_DISABLED)

#define LBSA_OBS_COUNTER_ADD(name, delta)                              \
  do {                                                                 \
    static ::lbsa::obs::Counter* const lbsa_obs_counter_ =             \
        ::lbsa::obs::Registry::global().counter(                       \
            (name), ::lbsa::obs::Stability::kStable);                  \
    lbsa_obs_counter_->add(static_cast<std::uint64_t>(delta));         \
  } while (0)

#define LBSA_OBS_COUNTER_ADD_V(name, delta)                            \
  do {                                                                 \
    static ::lbsa::obs::Counter* const lbsa_obs_counter_ =             \
        ::lbsa::obs::Registry::global().counter(                       \
            (name), ::lbsa::obs::Stability::kVolatile);                \
    lbsa_obs_counter_->add(static_cast<std::uint64_t>(delta));         \
  } while (0)

#define LBSA_OBS_GAUGE_SET(name, value)                                \
  do {                                                                 \
    static ::lbsa::obs::Gauge* const lbsa_obs_gauge_ =                 \
        ::lbsa::obs::Registry::global().gauge(                         \
            (name), ::lbsa::obs::Stability::kStable);                  \
    lbsa_obs_gauge_->set(static_cast<std::int64_t>(value));            \
  } while (0)

#define LBSA_OBS_GAUGE_SET_V(name, value)                              \
  do {                                                                 \
    static ::lbsa::obs::Gauge* const lbsa_obs_gauge_ =                 \
        ::lbsa::obs::Registry::global().gauge(                         \
            (name), ::lbsa::obs::Stability::kVolatile);                \
    lbsa_obs_gauge_->set(static_cast<std::int64_t>(value));            \
  } while (0)

#define LBSA_OBS_GAUGE_MAX(name, value)                                \
  do {                                                                 \
    static ::lbsa::obs::Gauge* const lbsa_obs_gauge_ =                 \
        ::lbsa::obs::Registry::global().gauge(                         \
            (name), ::lbsa::obs::Stability::kStable);                  \
    lbsa_obs_gauge_->observe_max(static_cast<std::int64_t>(value));    \
  } while (0)

// Declares a local ::lbsa::obs::Span named `var`.
#define LBSA_OBS_SPAN(var, name, cat, lane) \
  ::lbsa::obs::Span var((name), (cat), (lane))

#else  // LBSA_OBS_DISABLED

namespace lbsa::obs::internal {
// Sinks that type-check macro arguments in the erased build, then vanish.
constexpr void obs_sink_name(const char*) {}
constexpr void obs_sink_u64(std::uint64_t) {}
constexpr void obs_sink_i64(std::int64_t) {}
}  // namespace lbsa::obs::internal

#define LBSA_OBS_COUNTER_ADD(name, delta)                                \
  do {                                                                   \
    ::lbsa::obs::internal::obs_sink_name(name);                          \
    ::lbsa::obs::internal::obs_sink_u64(                                 \
        static_cast<std::uint64_t>(delta));                              \
  } while (0)
#define LBSA_OBS_COUNTER_ADD_V(name, delta) LBSA_OBS_COUNTER_ADD(name, delta)
#define LBSA_OBS_GAUGE_SET(name, value)                                  \
  do {                                                                   \
    ::lbsa::obs::internal::obs_sink_name(name);                          \
    ::lbsa::obs::internal::obs_sink_i64(static_cast<std::int64_t>(value)); \
  } while (0)
#define LBSA_OBS_GAUGE_SET_V(name, value) LBSA_OBS_GAUGE_SET(name, value)
#define LBSA_OBS_GAUGE_MAX(name, value) LBSA_OBS_GAUGE_SET(name, value)

#define LBSA_OBS_SPAN(var, name, cat, lane)          \
  [[maybe_unused]] ::lbsa::obs::NoopSpan var;        \
  ::lbsa::obs::internal::obs_sink_name(name);        \
  ::lbsa::obs::internal::obs_sink_name(cat);         \
  ::lbsa::obs::internal::obs_sink_i64(static_cast<std::int64_t>(lane))

#endif  // LBSA_OBS_DISABLED

#endif  // LBSA_OBS_OBS_H_
