// adv::obs — lightweight observability for the training/inference/attack
// hot paths.
//
// A process-wide MetricsRegistry maps string keys to three metric kinds:
// Counter (monotonic u64), Gauge (last-written double) and Timer (a
// count/total/min/max nanosecond histogram fed by ScopedTimer). All
// recording operations are lock-free atomics; only the first lookup of a
// key takes the registry mutex, and entries are never removed, so
// references returned by counter()/gauge()/timer() stay valid for the
// life of the process — instrumentation sites cache them in function-local
// statics.
//
// Gating. Instrumented sites (Sequential, ThreadPool, gemm, the attack
// adapters) test obs::enabled() before doing any clock or registry work.
// The one switch is at runtime: enabled() starts false (or from the
// ADV_OBS env var, which wins over later set_enabled calls made by the
// bench drivers), so with it off tests and library users pay one relaxed
// atomic load per site. The registry itself always works (it is plain
// data); gating applies to the instrumentation points, not to direct
// registry calls.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace adv::obs {

/// Process-wide instrumentation switch (one relaxed atomic load).
bool enabled();

/// Turns instrumentation on/off at runtime. Ignored when the ADV_OBS
/// environment variable pinned the state ("1" on, "0" off) — the env var
/// is the operator's override of the drivers' defaults.
void set_enabled(bool on);

/// True when ADV_OBS was present in the environment.
bool enabled_pinned_by_env();

/// Monotonic counter. add() is a relaxed fetch_add — concurrent
/// increments from pool workers sum exactly.
class Counter {
 public:
  void add(std::uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written value (e.g. a derived rate stamped at emission time).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Nanosecond duration histogram: count, total, min, max. record_ns is a
/// few relaxed atomics (CAS loops for min/max), safe from any thread.
class Timer {
 public:
  void record_ns(std::uint64_t ns) {
    count_.fetch_add(1, std::memory_order_relaxed);
    total_.fetch_add(ns, std::memory_order_relaxed);
    update_min(ns);
    update_max(ns);
  }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t total_ns() const {
    return total_.load(std::memory_order_relaxed);
  }
  /// 0 when nothing was recorded.
  std::uint64_t min_ns() const {
    const std::uint64_t v = min_.load(std::memory_order_relaxed);
    return v == kUnset ? 0 : v;
  }
  std::uint64_t max_ns() const { return max_.load(std::memory_order_relaxed); }

 private:
  static constexpr std::uint64_t kUnset =
      std::numeric_limits<std::uint64_t>::max();
  void update_min(std::uint64_t ns) {
    std::uint64_t cur = min_.load(std::memory_order_relaxed);
    while (ns < cur &&
           !min_.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
    }
  }
  void update_max(std::uint64_t ns) {
    std::uint64_t cur = max_.load(std::memory_order_relaxed);
    while (ns > cur &&
           !max_.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
    }
  }
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> total_{0};
  std::atomic<std::uint64_t> min_{kUnset};
  std::atomic<std::uint64_t> max_{0};
};

class MetricsRegistry {
 public:
  /// The process-wide registry every instrumentation site records into.
  static MetricsRegistry& global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates the metric for `key`. Returned references are
  /// stable for the registry's lifetime (entries are never removed).
  /// The three kinds live in separate key spaces.
  Counter& counter(const std::string& key);
  Gauge& gauge(const std::string& key);
  Timer& timer(const std::string& key);

  /// Point-in-time copy of one metric, for emission and tests.
  struct Sample {
    enum class Kind { Counter, Gauge, Timer };
    std::string key;
    Kind kind = Kind::Counter;
    std::uint64_t value = 0;     // Counter
    double gauge_value = 0.0;    // Gauge
    std::uint64_t count = 0;     // Timer
    std::uint64_t total_ns = 0;
    std::uint64_t min_ns = 0;
    std::uint64_t max_ns = 0;
  };

  /// All metrics whose key starts with `prefix` (empty = all), sorted by
  /// key within each kind (counters, then gauges, then timers).
  std::vector<Sample> snapshot(std::string_view prefix = {}) const;

  /// Number of registered keys across all kinds.
  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Timer>> timers_;
};

/// RAII wall-clock timer. The key-based constructor resolves against the
/// global registry only when obs::enabled(); otherwise the scope is a
/// no-op (no clock read, no key registered).
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer* timer)
      : timer_(timer),
        start_(timer ? std::chrono::steady_clock::now()
                     : std::chrono::steady_clock::time_point{}) {}
  explicit ScopedTimer(const std::string& key)
      : ScopedTimer(enabled() ? &MetricsRegistry::global().timer(key)
                              : nullptr) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    if (timer_) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_);
      timer_->record_ns(static_cast<std::uint64_t>(ns.count()));
    }
  }

 private:
  Timer* timer_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace adv::obs
