// Compiled with LBSA_OBS_DISABLED (see tests/obs/CMakeLists.txt): every
// LBSA_OBS_* macro must erase to a no-op that still type-checks its
// arguments. This is the "literal zero cost" tier of the observability
// design — the test proves the erased call sites register nothing and
// record nothing even with both global sinks switched on.
#ifndef LBSA_OBS_DISABLED
#error "this test must be compiled with LBSA_OBS_DISABLED"
#endif

#include "obs/obs.h"

#include <cstdint>
#include <string>

#include "gtest/gtest.h"

namespace lbsa::obs {
namespace {

TEST(ObsDisabled, MacrosRegisterAndRecordNothing) {
  // Worst case for the erased build: both sinks are on.
  set_metrics_enabled(true);
  set_tracing_enabled(true);
  const std::string before_metrics = Registry::global().snapshot().to_json();
  const std::size_t before_events = Tracer::global().event_count();

  std::uint64_t n = 3;
  LBSA_OBS_COUNTER_ADD("erased.counter", 1);
  LBSA_OBS_COUNTER_ADD_V("erased.counter.volatile", n);
  LBSA_OBS_GAUGE_SET("erased.gauge", 7);
  LBSA_OBS_GAUGE_SET_V("erased.gauge.volatile", -2);
  LBSA_OBS_GAUGE_MAX("erased.gauge.max", n);
  {
    LBSA_OBS_SPAN(span, "erased.span", kCatPhase, 0);
    span.arg("key", 1);
    EXPECT_FALSE(span.active());
  }

  EXPECT_EQ(Registry::global().snapshot().to_json(), before_metrics)
      << "erased macros must not register metrics";
  EXPECT_EQ(Tracer::global().event_count(), before_events)
      << "erased spans must not record events";
  set_metrics_enabled(false);
  set_tracing_enabled(false);
}

TEST(ObsDisabled, SpanMacroDeclaresUsableVariable) {
  // The macro's variable is a real local: nested scopes, shadowing, and
  // argument expressions with side effects all behave.
  int lane = 0;
  LBSA_OBS_SPAN(outer, "outer", kCatTask, lane + 1);
  (void)outer;
  {
    LBSA_OBS_SPAN(inner, "inner", kCatWorker, 2);
    inner.arg("i", 0);
    EXPECT_FALSE(NoopSpan::active());
  }
}

}  // namespace
}  // namespace lbsa::obs
