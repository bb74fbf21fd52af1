#include "obs/metrics.h"

#include <algorithm>
#include <utility>

#include "base/check.h"
#include "obs/json.h"

namespace lbsa::obs {

namespace internal {

int this_thread_stripe() {
  static std::atomic<unsigned> next{0};
  thread_local const int stripe = static_cast<int>(
      next.fetch_add(1, std::memory_order_relaxed) %
      static_cast<unsigned>(kMetricStripes));
  return stripe;
}

}  // namespace internal

Registry& Registry::global() {
  static Registry* registry = new Registry();  // leaked: process lifetime
  return *registry;
}

Counter* Registry::counter(std::string_view name, Stability stability) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Counter& c : counters_) {
    if (c.name() == name) {
      LBSA_CHECK_MSG(c.stability() == stability,
                     "obs: counter re-registered with different stability");
      return &c;
    }
  }
  return &counters_.emplace_back(std::string(name), stability);
}

Gauge* Registry::gauge(std::string_view name, Stability stability) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Gauge& g : gauges_) {
    if (g.name() == name) {
      LBSA_CHECK_MSG(g.stability() == stability,
                     "obs: gauge re-registered with different stability");
      return &g;
    }
  }
  return &gauges_.emplace_back(std::string(name), stability);
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Counter& c : counters_) {
      snap.counters.push_back({c.name(), c.stability(), c.total()});
    }
    for (const Gauge& g : gauges_) {
      snap.gauges.push_back({g.name(), g.stability(), g.value()});
    }
  }
  auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  return snap;
}

void Registry::reset_values() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Counter& c : counters_) c.reset();
  for (Gauge& g : gauges_) g.reset();
}

namespace {

template <typename Row, typename EmitValue>
void write_rows(JsonWriter* w, const std::vector<Row>& rows, bool want_stable,
                EmitValue emit_value) {
  w->begin_object();
  for (const Row& row : rows) {
    if ((row.stability == Stability::kStable) != want_stable) continue;
    w->key(row.name);
    emit_value(row);
  }
  w->end_object();
}

void write_sections(JsonWriter* w, const MetricsSnapshot& snap,
                    bool want_stable) {
  w->key("counters");
  write_rows(w, snap.counters, want_stable,
             [&](const MetricsSnapshot::CounterRow& row) {
               w->value_uint(row.value);
             });
  w->key("gauges");
  write_rows(w, snap.gauges, want_stable,
             [&](const MetricsSnapshot::GaugeRow& row) {
               w->value_int(row.value);
             });
}

}  // namespace

std::string MetricsSnapshot::to_json(bool include_volatile) const {
  JsonWriter w;
  w.begin_object();
  write_sections(&w, *this, /*want_stable=*/true);
  if (include_volatile) {
    w.key("volatile");
    w.begin_object();
    write_sections(&w, *this, /*want_stable=*/false);
    w.end_object();
  }
  w.end_object();
  return std::move(w).str();
}

}  // namespace lbsa::obs
