#include "obs/metrics.hpp"

#include <cstdlib>

namespace adv::obs {

namespace {

struct EnabledState {
  std::atomic<bool> on{false};
  bool pinned = false;

  EnabledState() {
    if (const char* env = std::getenv("ADV_OBS")) {
      pinned = true;
      on.store(env[0] != '0', std::memory_order_relaxed);
    }
  }
};

EnabledState& state() {
  static EnabledState s;
  return s;
}

}  // namespace

bool enabled() { return state().on.load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  EnabledState& s = state();
  if (s.pinned) return;  // operator's env override wins
  s.on.store(on, std::memory_order_relaxed);
}

bool enabled_pinned_by_env() { return state().pinned; }

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& key) {
  std::lock_guard lock(mutex_);
  auto& slot = counters_[key];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& key) {
  std::lock_guard lock(mutex_);
  auto& slot = gauges_[key];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Timer& MetricsRegistry::timer(const std::string& key) {
  std::lock_guard lock(mutex_);
  auto& slot = timers_[key];
  if (!slot) slot = std::make_unique<Timer>();
  return *slot;
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::snapshot(
    std::string_view prefix) const {
  const auto matches = [&](const std::string& key) {
    return prefix.empty() || key.compare(0, prefix.size(), prefix) == 0;
  };
  std::vector<Sample> out;
  std::lock_guard lock(mutex_);
  for (const auto& [key, c] : counters_) {
    if (!matches(key)) continue;
    Sample s;
    s.key = key;
    s.kind = Sample::Kind::Counter;
    s.value = c->value();
    out.push_back(std::move(s));
  }
  for (const auto& [key, g] : gauges_) {
    if (!matches(key)) continue;
    Sample s;
    s.key = key;
    s.kind = Sample::Kind::Gauge;
    s.gauge_value = g->value();
    out.push_back(std::move(s));
  }
  for (const auto& [key, t] : timers_) {
    if (!matches(key)) continue;
    Sample s;
    s.key = key;
    s.kind = Sample::Kind::Timer;
    s.count = t->count();
    s.total_ns = t->total_ns();
    s.min_ns = t->min_ns();
    s.max_ns = t->max_ns();
    out.push_back(std::move(s));
  }
  return out;
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard lock(mutex_);
  return counters_.size() + gauges_.size() + timers_.size();
}

}  // namespace adv::obs
