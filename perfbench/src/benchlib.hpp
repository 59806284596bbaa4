// Measurement primitives of the repository benchmark, kept free of any
// model code so tests/benchlib_test.cpp can pin them down exactly:
//
//   * percentiles with a sample-support rule (no percentile is reported
//     unless at least `min_beyond` samples lie beyond it), and windowed
//     medians of percentiles and completion rates;
//   * seeded open-loop arrival schedules (Poisson, deterministic per seed);
//   * the max_rps rule: bisection over a fixed geometric ladder of rates,
//     each step judged by latency limit, failures and generator lateness;
//   * an in-memory span tracer (name, start, end, parent, request id) with
//     self time computed from nested spans.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

// --- percentiles ---------------------------------------------------------

/// Nearest-rank percentile of `samples` (need not be sorted). Failed
/// requests enter as +infinity, so they always count as over any limit.
/// Returns nullopt when fewer than `min_beyond` samples rank above it.
std::optional<double> supported_percentile(std::vector<double> samples,
                                           double pct,
                                           std::size_t min_beyond = 10);

/// Median, over `windows` equal consecutive slices of `samples` (in send
/// order), of each slice's supported `pct` percentile: a stall that hits
/// one slice moves one of the values, not the result. nullopt when any
/// slice lacks sample support.
std::optional<double> windowed_percentile(const std::vector<double>& samples,
                                          double pct, std::size_t windows,
                                          std::size_t min_beyond = 10);

/// Median, over `windows` equal consecutive slices of [t0, t1), of the
/// number of `done_s` times in each slice per second. Times outside
/// [t0, t1) count in no slice.
double windowed_rate(const std::vector<double>& done_s, double t0, double t1,
                     std::size_t windows);

/// Samples that rank strictly above the nearest-rank `pct` percentile of
/// `n` samples: n - ceil(pct/100 * n).
std::size_t samples_beyond(std::size_t n, double pct);

// --- open-loop schedules -------------------------------------------------

struct Arrival {
  double due_s = 0.0;       // offset from the phase start
  std::uint32_t item = 0;   // index into the request pool
};

/// Poisson arrivals at `rate_per_s` over [0, duration_s), each naming a
/// pool item. Items are dealt in shuffled rounds (every item exactly once
/// per `pool_size` arrivals), so the request mix of a phase does not
/// wander with the seed. Pure function of its arguments: the same
/// (seed, stream) always yields the same schedule on every platform.
std::vector<Arrival> poisson_schedule(std::uint64_t seed, std::uint64_t stream,
                                      double rate_per_s, double duration_s,
                                      std::size_t pool_size);

/// splitmix64 step; exposed so pool construction shares the generator.
std::uint64_t splitmix64(std::uint64_t& state);

// --- the max_rps rule ----------------------------------------------------

/// lo * ratio^k for k = 0 .. rungs-1.
std::vector<double> geometric_ladder(double lo, double ratio,
                                     std::size_t rungs);

/// What one rate step observed, in send order.
struct StepSamples {
  std::vector<double> latency_ms;   // from due time; +inf for failures
  std::vector<double> lateness_ms;  // send time minus due time
  std::size_t failed = 0;
};

struct StepVerdict {
  bool pass = false;
  std::optional<double> latency_ms;  // the judged percentile, if supported
  double lateness_growth_ms = 0.0;
  std::string reason;              // empty on pass
};

/// Lateness trend of a step: the median lateness of its last quarter of
/// requests minus that of its first, counted only when the four quarter
/// medians rise monotonically (0 otherwise, and with fewer than 8
/// requests). A scheduling hiccup inside one quarter is no trend; a
/// saturated generator falling further behind is.
double lateness_growth_ms(const std::vector<double>& lateness_ms);

/// A step passes iff nothing failed, its `pct` latency percentile has
/// sample support and is within `limit_ms`, and generator lateness grew by
/// at most `growth_tol_ms` from the first to the last quarter of the step.
StepVerdict judge_step(const StepSamples& s, double pct, double limit_ms,
                       double growth_tol_ms);

/// Bisection for the highest rung of a `rungs`-long ladder on which
/// `probe` passes, assuming passing is monotone (every rung below a
/// passing one passes); nullopt when even rung 0 fails. Probes
/// ceil(log2(rungs + 1)) rungs at most.
std::optional<std::size_t> bisect_ladder(
    std::size_t rungs, const std::function<bool(std::size_t)>& probe);

// --- span tracer ---------------------------------------------------------

using Clock = std::chrono::steady_clock;

/// Seconds since the process-wide benchmark epoch (set at first use).
double now_s();

struct SpanRecord {
  std::string name;         // "<layer>.<call>", e.g. "attacks.ead"
  double start_s = 0.0;     // now_s() clock
  double end_s = 0.0;
  std::uint64_t id = 0;     // 1-based, unique per process
  std::uint64_t parent = 0; // 0 = root
  std::uint64_t request = 0;
};

/// Process-wide span store. Disabled (the untraced runs) it records
/// nothing and Span is a no-op apart from one branch.
class Tracer {
 public:
  static Tracer& global();

  void set_enabled(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  std::uint64_t next_id();
  void close(SpanRecord rec);
  std::vector<SpanRecord> spans() const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 0;
  std::vector<SpanRecord> spans_;
};

/// RAII span. Its parent is the innermost open Span on this thread, or
/// `parent` when given (cross-thread children, e.g. request spans opened
/// by generator threads under the phase span).
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0,
                std::optional<std::uint64_t> parent = std::nullopt);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return rec_.id; }

 private:
  SpanRecord rec_;
  bool active_ = false;
  std::uint64_t saved_current_ = 0;
};

/// Measure (seconds) of the union of the intervals, clipped to [lo, hi].
double union_measure(std::vector<std::pair<double, double>> intervals,
                     double lo, double hi);

/// Per span id: its duration minus the union of its children's intervals
/// clipped to it (concurrent children are not double-counted).
std::vector<double> self_times(const std::vector<SpanRecord>& spans);

/// Self time summed per layer (the span name up to the first '.').
std::vector<std::pair<std::string, double>> self_time_by_layer(
    const std::vector<SpanRecord>& spans);

/// Writes spans as a JSON array of objects.
std::string spans_json(const std::vector<SpanRecord>& spans);

}  // namespace perfbench
